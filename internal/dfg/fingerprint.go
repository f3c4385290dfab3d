package dfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

// Fingerprint is a deterministic content hash of a DFG. Two graphs have the
// same fingerprint exactly when they are structurally identical: same name,
// same node sequence (name, kind, immediate), same edge sequence (endpoints,
// port, distance). Every mapper in this repository is deterministic given its
// options, so the fingerprint is a sound memoization key component for
// mapping results (internal/memo): equal fingerprints mean equal inputs mean
// byte-identical mappings.
//
// The encoding is length-prefixed and versioned ("dfg/v1"), so no two
// distinct graphs can collide by field concatenation, and any future change
// to the hashed content must bump the tag (invalidating, never corrupting,
// caches built on the old scheme).
func (d *DFG) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	hw := hashWriter{h: h}
	hw.str("dfg/v1")
	hw.str(d.Name)
	hw.num(int64(len(d.Nodes)))
	for _, nd := range d.Nodes {
		hw.str(nd.Name)
		hw.num(int64(nd.Kind))
		hw.num(nd.Value)
	}
	hw.num(int64(len(d.Edges)))
	for _, e := range d.Edges {
		hw.num(int64(e.From))
		hw.num(int64(e.To))
		hw.num(int64(e.Port))
		hw.num(int64(e.Dist))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// hashWriter streams length-prefixed primitives into a hash.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w hashWriter) num(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w hashWriter) str(s string) {
	w.num(int64(len(s)))
	io.WriteString(w.h, s)
}

// KindFromString returns the operation kind with the given mnemonic (the
// inverse of OpKind.String), for wire decoders.
func KindFromString(s string) (OpKind, bool) {
	for k := OpKind(0); k < numKinds; k++ {
		if kindInfo[k].name == s {
			return k, true
		}
	}
	return 0, false
}

// FromParts assembles a DFG from raw node and edge lists (deep-copied), as
// wire decoders produce, and validates it. Node IDs must equal their index;
// a zero-valued ID field on every node is also accepted and filled in, so
// decoders need not serialize the redundant field.
func FromParts(name string, nodes []Node, edges []Edge) (*DFG, error) {
	d := &DFG{
		Name:  name,
		Nodes: append([]Node(nil), nodes...),
		Edges: append([]Edge(nil), edges...),
	}
	allZero := true
	for _, nd := range d.Nodes {
		if nd.ID != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		for i := range d.Nodes {
			d.Nodes[i].ID = i
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dfg: FromParts: %w", err)
	}
	d.rebuildAdj()
	return d, nil
}
