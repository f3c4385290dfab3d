package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"regimap/internal/obs"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	// p90 of 100 samples is rank 90: exactly ten samples lie beyond it.
	v, err := tail(samples, 90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, nil", v, err)
	}
	// p91 leaves nine beyond: refused.
	if _, err := tail(samples, 91); err == nil {
		t.Fatal("p91 of 100 samples has 9 beyond it; want an error")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0},   // no percentile leaves ten beyond
		{20, 50},  // rank 10, ten beyond
		{30, 66},  // rank 20, ten beyond; p67 is rank 21
		{100, 90}, // rank 90
		{360, 97}, // rank 350; p98 is rank 353
		{5000, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if got > 0 {
			samples := make([]float64, tc.n)
			if _, err := tail(samples, got); err != nil {
				t.Errorf("tailPercentile(%d) = %v is refused by tail: %v", tc.n, got, err)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// span builds a span event on a millisecond grid.
func span(name string, start, end int) obs.Event {
	return obs.Event{Name: name, Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(end-start) * time.Millisecond}
}

func TestSelfTimesNested(t *testing.T) {
	events := []obs.Event{
		span("child", 40, 70),
		span("parent", 0, 100),
		span("grandchild", 45, 50),
		span("child", 10, 30),
		{Name: "point", Start: 20 * time.Millisecond}, // zero duration: ignored
		span("other", 120, 130),
	}
	got, err := selfTimes(events)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"parent":     50 * time.Millisecond, // 100 - 20 - 30
		"child":      45 * time.Millisecond, // 20 + (30 - 5)
		"grandchild": 5 * time.Millisecond,
		"other":      10 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesSharedStart(t *testing.T) {
	// A child opening at its parent's start is still its child.
	got, err := selfTimes([]obs.Event{span("child", 0, 10), span("parent", 0, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if got["parent"] != 20*time.Millisecond || got["child"] != 10*time.Millisecond {
		t.Fatalf("selfTimes = %v", got)
	}
}

func TestSelfTimesRejectsInterleaving(t *testing.T) {
	_, err := selfTimes([]obs.Event{span("a", 0, 10), span("b", 5, 15)})
	if err == nil || !strings.Contains(err.Error(), "without nesting") {
		t.Fatalf("overlapping spans: err = %v, want a nesting error", err)
	}
}

func TestClassSelfMatchesTreeOnOneGoroutine(t *testing.T) {
	events := []obs.Event{
		span("ii.attempt", 0, 100),
		span("pass.schedule", 5, 20),
		span("sched.schedule", 6, 19),
		span("pass.clique", 30, 90),
		span("ii.attempt", 100, 150),
		span("pass.compat", 110, 140),
	}
	tree, err := selfTimes(events)
	if err != nil {
		t.Fatal(err)
	}
	sum := classSelf(events, "ii.attempt", "pass.schedule", "pass.compat", "pass.clique", "pass.learn")
	if sum != tree["ii.attempt"] || sum != 45*time.Millisecond {
		t.Fatalf("classSelf = %v, tree = %v, want both 45ms", sum, tree["ii.attempt"])
	}
}

func TestClassSelfOverInterleavedSpans(t *testing.T) {
	// Two goroutines: A's attempt [0,100] holds a pass [10,60]; B's attempt
	// [50,120] holds a pass [55,115]. The intervals cannot be attributed
	// (A's pass overlaps B's attempt), but per-class sums still can.
	events := []obs.Event{
		span("ii.attempt", 0, 100),
		span("pass.clique", 10, 60),
		span("ii.attempt", 50, 120),
		span("pass.clique", 55, 115),
	}
	if _, err := selfTimes(events); err == nil {
		t.Fatal("interleaved spans must not build a tree")
	}
	if got := classSelf(events, "ii.attempt", "pass.clique"); got != 60*time.Millisecond {
		t.Fatalf("classSelf = %v, want 170ms - 110ms = 60ms", got)
	}
}

func TestCountsAndFields(t *testing.T) {
	e1 := span("pass.clique", 0, 10)
	e1.Fields[0], e1.NFields = obs.Field{Key: "placed", Val: 7}, 1
	e2 := span("pass.clique", 10, 20)
	e2.Fields[0], e2.NFields = obs.Field{Key: "placed", Val: 5}, 1
	events := []obs.Event{e1, e2, span("pass.compat", 20, 30)}
	if got := sumField(events, "pass.clique", "placed"); got != 12 {
		t.Errorf("sumField = %d, want 12", got)
	}
	if got := durByName(events)["pass.clique"]; got != 20*time.Millisecond {
		t.Errorf("durByName = %v, want 20ms", got)
	}
}

func TestDiffRecords(t *testing.T) {
	want := record{
		Results: map[string]string{"a": "ii=3 mii=3 proven=true", "b": "ii=0 mii=2 proven=false"},
		Counts:  map[string]float64{"core.attempts": 10, "quality": 0.5},
	}
	if d := diffRecords(want, want); len(d) != 0 {
		t.Fatalf("identical records differ: %v", d)
	}
	got := record{
		Results: map[string]string{"a": "ii=4 mii=3 proven=false", "c": "ok"},
		Counts:  map[string]float64{"core.attempts": 11, "quality": 0.5, "memo.evictions": 0},
	}
	d := diffRecords(want, got)
	wantDiffs := []string{
		"count core.attempts: 11, was 10",
		"count memo.evictions: unexpected (0)",
		"op a: ii=4 mii=3 proven=false, was ii=3 mii=3 proven=true",
		"op b: missing (was ii=0 mii=2 proven=false)",
		"op c: unexpected (ok)",
	}
	if !reflect.DeepEqual(d, wantDiffs) {
		t.Fatalf("diffRecords =\n%s\nwant\n%s", strings.Join(d, "\n"), strings.Join(wantDiffs, "\n"))
	}
}

func TestScoreOpsIsOrderIndependent(t *testing.T) {
	var ops []opResult
	for i := 0; i < 200; i++ {
		ops = append(ops, opResult{id: fmt.Sprint("op", i), scored: true, mii: 1 + i%5, ii: 1 + i%5 + i%3, proven: i%3 == 0})
	}
	ops = append(ops, opResult{id: "none", scored: true, mii: 3}) // unmapped: scores 0
	ops = append(ops, opResult{id: "scrape", scored: false})      // not scored
	s0 := scoreOps(ops)
	for seed := int64(0); seed < 20; seed++ {
		rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		s := scoreOps(ops)
		if math.Float64bits(s.quality) != math.Float64bits(s0.quality) || s != s0 {
			t.Fatalf("seed %d: scoreOps = %+v; want %+v bit for bit", seed, s, s0)
		}
	}
	if s0.proven != 67.0/201 || s0.unmapped != 1 {
		t.Errorf("proven = %v, unmapped = %v; want 67/201, 1", s0.proven, s0.unmapped)
	}
}

func TestScoreOpsCountsEachProblemOnce(t *testing.T) {
	// Many cache hits on one key weigh as much as the one request of
	// another key.
	var ops []opResult
	for i := 0; i < 1000; i++ {
		ops = append(ops, opResult{id: "hit/a", scored: true, mii: 2, ii: 2, proven: true})
	}
	ops = append(ops, opResult{id: "miss/b", scored: true, mii: 2})
	want := scores{quality: 0.5, proven: 0.5, unmapped: 1}
	if s := scoreOps(ops); s != want {
		t.Fatalf("scoreOps = %+v, want %+v", s, want)
	}
}

func TestRenderCompleteness(t *testing.T) {
	s := &spec{}
	names := []specMetric{{"sched.ms", "ms"}, {"sat.conflicts", "count"}, {"server.hit_ms", "ms"}}
	// On the exact workload the daemon's server metric is out of scope (0),
	// but a metric of its own or of every workload must be present.
	out, err := s.render(names, map[string]float64{"sched.ms": 1.5, "sat.conflicts": 7}, "exact", true)
	if err != nil {
		t.Fatal(err)
	}
	if out["server.hit_ms"].Value != 0 || out["sched.ms"] != (metric{1.5, "ms"}) {
		t.Fatalf("render = %v", out)
	}
	if _, err := s.render(names, map[string]float64{"sched.ms": 1.5}, "exact", true); err == nil || !strings.Contains(err.Error(), "sat.conflicts") {
		t.Fatalf("missing in-scope metric: err = %v", err)
	}
	if _, err := s.render(names, map[string]float64{"sat.conflicts": 7, "server.hit_ms": 2}, "exact", true); err == nil {
		t.Fatal("missing common metric sched.ms must fail")
	}
	if _, err := s.render(names[:1], map[string]float64{"sched.ms": math.NaN()}, "suite", true); err == nil {
		t.Fatal("NaN must fail")
	}
}

func TestLayerScope(t *testing.T) {
	for name, want := range map[string]string{
		"regimap.ms.torus-8x8": "suite",
		"ems.ms.paper-4x4":     "suite",
		"ems.ms":               "",
		"sat.conflicts":        "exact",
		"client.hit_ms_tail":   "daemon",
		"engine.ms":            "daemon",
		"sched.ms":             "",
		"dfg.build_us":         "",
	} {
		if got := layerScope(name); got != want {
			t.Errorf("layerScope(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSpecNamesEveryMetricOnce(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if seen[m.Name] || m.Unit == "" {
			t.Errorf("metric %q is duplicated or has no unit", m.Name)
		}
		seen[m.Name] = true
	}
	for _, want := range []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "quality", "proven_frac", "peak_rss_mb"} {
		if !seen[want] {
			t.Errorf("BENCHMARK.json lacks end-to-end metric %s", want)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nregimapd_cache_hits_total 12\nregimapd_requests_total{code=\"200\"} 30\n"
	got := parseMetrics(text)
	if got["regimapd_cache_hits_total"] != 12 || got[`regimapd_requests_total{code="200"}`] != 30 {
		t.Fatalf("parseMetrics = %v", got)
	}
}
