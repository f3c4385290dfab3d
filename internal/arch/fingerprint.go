package arch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"strings"

	"regimap/internal/dfg"
)

// fingerprintKinds bounds the per-PE capability scan of Fingerprint. It only
// needs to cover every dfg.OpKind value (currently 22); anything beyond is
// hashed as the constant "supported" a homogeneous PE reports, so the bound
// can grow without invalidating fingerprints of capability-free arrays.
const fingerprintKinds = 32

// Fingerprint is a deterministic content hash of the array configuration:
// dimensions, topology, fanout bound, per-PE register files (nominal and
// effective), capability restrictions, the bus grouping and its capacities,
// and the full fault state (broken PEs, severed links via the adjacency
// rows, limited register files, dead row buses). Two arrays with equal
// fingerprints impose identical constraints on every mapper, so the
// fingerprint is a sound memoization key component (internal/memo).
//
// The hash walks observable behaviour (Supports, RegsAt, RowBusOK, the bus
// accessors) rather than internal storage, so two arrays reaching the same
// constraint set through different histories fingerprint equal. The domain
// tag is "arch/v2": v1 covered neither nominal per-PE files nor bandwidth,
// so distinct described fabrics could alias in the caches, and it hashed
// the adjacency matrix bit-by-bit — v2 hashes whole 64-bit adjacency words.
func (c *CGRA) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	hw := archHashWriter{h: h}
	hw.str("arch/v2")
	hw.num(int64(c.Rows))
	hw.num(int64(c.Cols))
	hw.num(int64(c.NumRegs))
	hw.num(int64(c.Topology))
	hw.num(int64(c.fanout))
	n := c.NumPEs()
	const fullCaps = int64(1)<<fingerprintKinds - 1
	homogeneous := c.caps == nil && c.broken == nil
	for p := 0; p < n; p++ {
		hw.bit(c.PEOk(p))
		hw.num(int64(c.RegsAt(p)))
		hw.num(int64(c.NominalRegsAt(p)))
		hw.num(int64(c.BusGroupOf(p)))
		if homogeneous {
			hw.num(fullCaps)
			continue
		}
		var caps int64
		for k := 0; k < fingerprintKinds; k++ {
			if c.Supports(p, dfg.OpKind(k)) {
				caps |= 1 << k
			}
		}
		hw.num(caps)
	}
	for g := 0; g < c.NumBusGroups(); g++ {
		hw.num(int64(c.BusGroupCap(g)))
	}
	for r := 0; r < c.Rows; r++ {
		hw.bit(c.RowBusOK(r))
	}
	var buf []byte
	for p := 0; p < n; p++ {
		words := c.adj[p].Words()
		if buf == nil {
			buf = make([]byte, len(words)*8)
		}
		for i, w := range words {
			binary.LittleEndian.PutUint64(buf[i*8:], w)
		}
		h.Write(buf)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

type archHashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w archHashWriter) num(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w archHashWriter) str(s string) {
	w.num(int64(len(s)))
	io.WriteString(w.h, s)
}

func (w archHashWriter) bit(b bool) {
	if b {
		w.h.Write([]byte{1})
	} else {
		w.h.Write([]byte{0})
	}
}

// ParseTopology is the inverse of Topology.String, for wire decoders and
// request parsing. The empty string selects the paper's orthogonal mesh.
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mesh":
		return Mesh, nil
	case "mesh+", "meshplus":
		return MeshPlus, nil
	case "torus":
		return Torus, nil
	case "1hop", "onehop":
		return OneHop, nil
	default:
		return 0, fmt.Errorf("arch: unknown topology %q (have mesh, mesh+, torus, 1hop)", s)
	}
}
