// Golden equivalence suite: every benchmark kernel mapped by every engine,
// with the resulting mapping hashed and compared against
// testdata/golden_mappings.json. The file was generated before the
// pass-pipeline refactor, so a passing run proves the refactored mappers
// still produce byte-identical results on the whole suite.
//
// Regenerate (only when an intentional algorithm change lands) with:
//
//	go test -run TestGoldenMappings -update-golden .
package regimap_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"regimap"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_mappings.json from the current mappers")

const goldenPath = "testdata/golden_mappings.json"

// goldenDRESC is a reduced-but-fixed annealing budget: large enough to map
// most of the suite, small enough that the golden run stays in test time.
// What matters is determinism, not quality — the same options must produce
// the same placement before and after any refactor.
func goldenDRESC() regimap.DRESCOptions {
	return regimap.DRESCOptions{Seed: 7, MovesPerTemperature: 6 * 16, Cooling: 0.8}
}

// goldenExactConflicts is the exact engine's per-solve conflict budget in
// the golden suite: the exact benchmark workload's budget, small enough that
// rungs which exhaust it (the "unknown" verdicts most exact time goes to)
// are part of what the digests pin.
const goldenExactConflicts = 1000

// goldenExactMaxOps bounds the kernels the exact goldens cover by op count,
// keeping the exact half of the zoo suite to a few seconds.
const goldenExactMaxOps = 25

// goldenHash canonicalizes one mapping outcome to a short digest.
func goldenHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// goldenRun maps one kernel with one engine on fabric c and returns the
// canonical text the digest is computed over. Failures hash too: an engine
// that starts failing (or succeeding) where it did not before is also a
// behaviour change.
func goldenRun(t *testing.T, engine, kernel string, c *regimap.CGRA) string {
	t.Helper()
	k, ok := regimap.KernelByName(kernel)
	if !ok {
		t.Fatalf("kernel %q disappeared", kernel)
	}
	d := k.Build()
	switch engine {
	case "regimap":
		m, stats, err := regimap.Map(d, c, regimap.Options{})
		if stats == nil {
			return noStats(t, engine, kernel, c, err)
		}
		if err != nil {
			return fmt.Sprintf("unmapped MII=%d", stats.MII)
		}
		return fmt.Sprintf("II=%d attempts=%d routes=%d\n%s", stats.II, stats.Attempts, stats.RouteInserts, m)
	case "ems":
		m, stats, err := regimap.MapEMS(d, c, regimap.EMSOptions{})
		if stats == nil {
			return noStats(t, engine, kernel, c, err)
		}
		if err != nil {
			return fmt.Sprintf("unmapped MII=%d", stats.MII)
		}
		return fmt.Sprintf("II=%d placements=%d routes=%d\n%s", stats.II, stats.Placements, stats.Routes, m)
	case "dresc":
		p, stats, err := regimap.MapDRESC(d, c, goldenDRESC())
		if stats == nil {
			return noStats(t, engine, kernel, c, err)
		}
		if err != nil {
			return fmt.Sprintf("unmapped MII=%d", stats.MII)
		}
		return fmt.Sprintf("II=%d moves=%d time=%v pe=%v paths=%v", p.II, stats.Moves, p.Time, p.PE, p.Paths)
	case "exact":
		// The certificate's deterministic fields and every rung's solver
		// counts, so a change to the encoding or the solver's search path
		// shows even where the verdicts and the mapping stay put.
		m, stats, err := regimap.MapExact(d, c, regimap.ExactOptions{MaxConflicts: goldenExactConflicts})
		if stats == nil {
			return noStats(t, engine, kernel, c, err)
		}
		cert := stats.Cert
		var b strings.Builder
		fmt.Fprintf(&b, "MII=%d best=%d optimal=%d bound=%d class=%s\n",
			cert.MII, cert.BestII, cert.OptimalII, cert.ProvenLowerBound, cert.LowerBoundClass)
		for _, v := range cert.PerII {
			fmt.Fprintf(&b, "II=%d %s %q vars=%d clauses=%d conflicts=%d decisions=%d restarts=%d\n",
				v.II, v.Status, v.Note, v.Vars, v.Clauses, v.Conflicts, v.Decisions, v.Restarts)
		}
		if err != nil {
			b.WriteString("unmapped")
		} else {
			b.WriteString(m.String())
		}
		return b.String()
	case "explore":
		// The II and the mapping only: Explore reports the winning
		// candidate's Stats, which the digests do not pin.
		m, stats, err := regimap.Map(d, c, regimap.Options{Explore: goldenExplore})
		if stats == nil {
			return noStats(t, engine, kernel, c, err)
		}
		if err != nil {
			return fmt.Sprintf("unmapped MII=%d", stats.MII)
		}
		return fmt.Sprintf("II=%d\n%s", stats.II, m)
	default:
		t.Fatalf("unknown golden engine %q", engine)
		return ""
	}
}

// noStats fails the one digest of a run whose engine returned no Stats,
// which an engine does only when its own mapping fails validation (an
// internal bug), and lets the other digests go on.
func noStats(t *testing.T, engine, kernel string, c *regimap.CGRA, err error) string {
	t.Helper()
	t.Errorf("%s %s on %s: no stats (%v)", engine, kernel, c, err)
	return fmt.Sprintf("no stats: %v", err)
}

func TestGoldenMappings(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite maps every kernel with every engine; skipped in -short")
	}
	engines := []string{"regimap", "ems", "dresc"}
	type key = string // "engine/kernel"
	got := map[key]string{}
	for _, eng := range engines {
		for _, k := range regimap.Kernels() {
			got[eng+"/"+k.Name] = goldenHash(goldenRun(t, eng, k.Name, regimap.NewMesh(4, 4, 4)))
		}
	}
	checkOrUpdateGolden(t, goldenPath, got)
}

// checkOrUpdateGolden compares digests against the golden file at path, or
// rewrites it under -update-golden.
func checkOrUpdateGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		blob, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, suite produced %d (set changed? regenerate with -update-golden)", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: in golden file but not produced by the suite", k)
			continue
		}
		if g != w {
			t.Errorf("%s: mapping changed: digest %s, golden %s", k, g, w)
		}
	}
}

// goldenExplore is the scout count the explore digests pin: the
// `regimap -explore 3` configuration.
const goldenExplore = 3

// goldenExplorePairs are the zoo pairs off paper-4x4 on which Explore maps
// at a lower II than the base search. The explore digests cover them and
// every paper-4x4 kernel.
var goldenExplorePairs = []string{
	"adres-4x4/sobel", "band2-4x4/dct4_row", "band2-4x4/lbm_stream",
	"hetero-mem-col/dct4_row", "hetero-mem-col/lbm_stream", "hetero-mem-col/milc_su3",
	"hetero-mem-col/wavelet_lift", "onehop-4x4/dct4_row", "torus-8x8/alpha_blend",
	"torus-8x8/matmul4_inner", "torus-8x8/sjeng_eval",
}

// goldenArchPath pins mapping determinism across the named-architecture zoo:
// every suite kernel mapped by REGIMap, keyed "arch/kernel", and by EMS,
// keyed "ems/arch/kernel", on every registered architecture. The digests
// prove described fabrics (diagonals, torus wrap, heterogeneous
// capabilities, banked buses) map deterministically, not just the paper's
// default mesh; they cover the 64-candidate placements and long route spans
// of torus-8x8 that the 4x4 mesh never exercises. The
// exact half, keyed "exact/arch/kernel", pins every certificate and rung of
// the SAT engine on the suite kernels of at most goldenExactMaxOps ops, on
// the fabrics of goldenExactArchs. The explore half, keyed
// "explore/arch/kernel", pins REGIMap with goldenExplore scouts on every
// paper-4x4 kernel and on goldenExplorePairs. The regs half, keyed
// "regs/fabric/kernel", pins REGIMap on the goldenRegsFabrics.
const goldenArchPath = "testdata/golden_archzoo.json"

// goldenRegsFabrics are fabrics whose register files differ by PE, which no
// zoo member has (every one is "regs 4"): a faulted paper-4x4 and two
// described banked files, so the clique search's per-PE register capacity
// meets files both smaller and larger than the array's largest.
var goldenRegsFabrics = []struct{ name, arch, faults string }{
	{"paper-4x4-regfaults", "paper-4x4", "regs 1,1=1; regs 2,2=2"},
	{"meshplus-banked", "grid 4x4; topo mesh+; regs 2; regs row 0=6; regs 3,3=1", ""},
	{"mesh-banked", "grid 4x4; regs 3; regs 1,2=8; regs row 2=1", ""},
}

// goldenExactArchs covers a homogeneous mesh, a banked-bus mesh and a
// heterogeneous fabric with memory-capable columns.
var goldenExactArchs = []string{"paper-4x4", "band2-4x4", "hetero-mem-col"}

func TestGoldenArchZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("arch-zoo golden suite maps kernels on every zoo member; skipped in -short")
	}
	resolve := func(t *testing.T, name string) *regimap.CGRA {
		c, err := regimap.ResolveArch(name)
		if err != nil {
			t.Fatalf("arch %q: %v", name, err)
		}
		return c
	}
	got := map[string]string{}
	var mu sync.Mutex
	// One parallel subtest per fabric: the REGIMap and EMS halves are 360
	// independent compiles, the bulk of this test's time under -race.
	t.Run("zoo", func(t *testing.T) {
		for _, name := range regimap.ArchNames() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, k := range regimap.Kernels() {
					r := goldenHash(goldenRun(t, "regimap", k.Name, resolve(t, name)))
					e := goldenHash(goldenRun(t, "ems", k.Name, resolve(t, name)))
					mu.Lock()
					got[name+"/"+k.Name], got["ems/"+name+"/"+k.Name] = r, e
					mu.Unlock()
				}
			})
		}
	})
	for _, name := range goldenExactArchs {
		for _, k := range regimap.Kernels() {
			if k.Build().N() > goldenExactMaxOps {
				continue
			}
			got["exact/"+name+"/"+k.Name] = goldenHash(goldenRun(t, "exact", k.Name, resolve(t, name)))
		}
	}
	pairs := slices.Clone(goldenExplorePairs)
	for _, k := range regimap.Kernels() {
		pairs = append(pairs, "paper-4x4/"+k.Name)
	}
	for _, pair := range pairs {
		name, kernel, _ := strings.Cut(pair, "/")
		got["explore/"+pair] = goldenHash(goldenRun(t, "explore", kernel, resolve(t, name)))
	}
	for _, f := range goldenRegsFabrics {
		fs, err := regimap.ParseFaults(f.faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range regimap.Kernels() {
			c, err := fs.Apply(resolve(t, f.arch))
			if err != nil {
				t.Fatalf("faults %q on %s: %v", f.faults, f.arch, err)
			}
			got["regs/"+f.name+"/"+k.Name] = goldenHash(goldenRun(t, "regimap", k.Name, c))
		}
	}
	checkOrUpdateGolden(t, goldenArchPath, got)
}

// TestGoldenMappingsWorkerSweep proves the raced II ladder's deterministic
// fold end to end: every kernel mapped with 1, 0 (the default race), 2 and
// 8 ladder workers must produce byte-identical canonical text. Workers=1
// maps one II at a time (also covered against the golden file above), so a
// sweep failure isolates the race, not an algorithm change. CI re-runs
// this sweep under -race at several GOMAXPROCS values.
func TestGoldenMappingsWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep maps every kernel four times; skipped in -short")
	}
	for _, k := range regimap.Kernels() {
		var want string
		for _, w := range []int{1, 0, 2, 8} {
			d := k.Build()
			c := regimap.NewMesh(4, 4, 4)
			opts := regimap.Options{Workers: w}
			var text string
			m, stats, err := regimap.Map(d, c, opts)
			if err != nil {
				text = fmt.Sprintf("unmapped MII=%d", stats.MII)
			} else {
				text = fmt.Sprintf("II=%d attempts=%d routes=%d\n%s", stats.II, stats.Attempts, stats.RouteInserts, m)
			}
			if w == 1 {
				want = text
				continue
			}
			if text != want {
				t.Errorf("kernel %s: mapping at %d ladder workers differs from one II at a time:\n--- workers=1\n%s\n--- workers=%d\n%s",
					k.Name, w, want, w, text)
			}
		}
	}
}
