package core

import (
	"context"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/obs"
	"regimap/internal/sched"
)

// newTestAttempt builds an Attempt the way mapAtII does, at the kernel's MII.
func newTestAttempt(t *testing.T, opts Options) (*Attempt, int) {
	t.Helper()
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	pes, memRows := c.MIIResources()
	ii := d.MII(pes, memRows)
	return NewAttempt(d, c, ii, opts, &Stats{MII: ii}, nil), ii
}

func TestPassScheduleAvoidsSeenSchedules(t *testing.T) {
	a, _ := newTestAttempt(t, Options{})
	res := a.PassSchedule()
	if res == nil {
		t.Fatal("fig2 should schedule at MII")
	}
	if _, proceed := a.PassPrecheck(res); !proceed {
		t.Fatal("first schedule should proceed to placement")
	}
	// The same schedule is now in the seen set: a second round must either
	// produce a different schedule or fall back (and then fail precheck).
	a.prevSchedule, a.prevUnplaced = res, []int{0}
	res2 := a.PassSchedule()
	if res2 == nil {
		t.Fatal("rescheduling should still succeed")
	}
	if scheduleKey(a.Width(), res2) == scheduleKey(a.Width(), res) {
		if _, proceed := a.PassPrecheck(res2); proceed {
			t.Fatal("duplicate schedule must not proceed to placement twice")
		}
	}
}

func TestPassPrecheckDuplicate(t *testing.T) {
	a, _ := newTestAttempt(t, Options{})
	res := a.PassSchedule()
	a.prevUnplaced = []int{3}
	if _, proceed := a.PassPrecheck(res); !proceed {
		t.Fatal("fresh schedule rejected")
	}
	skip, proceed := a.PassPrecheck(res)
	if proceed {
		t.Fatal("duplicate schedule accepted")
	}
	if len(skip) != 1 || skip[0] != 3 {
		t.Fatalf("duplicate should hand back the previous unplaced set, got %v", skip)
	}
}

func TestPassPrecheckOverflowComponent(t *testing.T) {
	// rec3 has a carried cycle p->q->r->p. At II=2 a hand-made schedule that
	// parks two component members in one modulo slot is structurally
	// unplaceable; precheck must catch it before the clique search pays.
	d := rec3DFG()
	c := arch.NewMesh(2, 2, 4)
	a := NewAttempt(d, c, 2, Options{}, &Stats{}, nil)
	res := &sched.Result{II: 2, Time: []int{0, 1, 2, 3}, Length: 4}
	// Times: p=1, q=2, r=3 → spans q<-p 1, r<-q 1, p<-r (dist 1) 2*1+1-3=0?
	// Build explicitly instead: force p and r into the same slot.
	res.Time = []int{0, 0, 1, 2} // x, p, q, r: carried edges make {p,q,r} one component
	skip, proceed := a.PassPrecheck(res)
	if overflowComponent(d, res, 2) == nil {
		t.Skip("schedule not overflowing under this DFG shape")
	}
	if proceed {
		t.Fatal("overflowing component passed precheck")
	}
	if len(skip) < 2 {
		t.Fatalf("precheck should hand the component to relaxation, got %v", skip)
	}
}

// TestPassCompatReusesBuilderAcrossRounds: the rounds of one II, and the
// next II, share the Map call's builder and its graph, and every Build lays
// the rows out afresh, so an edge no rule writes does not survive it.
func TestPassCompatReusesBuilderAcrossRounds(t *testing.T) {
	a, ii := newTestAttempt(t, Options{})
	res := a.PassSchedule()
	cg, err := a.PassCompat(res)
	if err != nil {
		t.Fatal(err)
	}
	cb, g := a.cb, cg.G
	if cb == nil {
		t.Fatal("builder not retained")
	}
	// Mark two bindings of op 0 adjacent: no rule writes that edge.
	u, v := cg.Candidates(0)[0], cg.Candidates(0)[1]
	cg.G.AddEdge(u, v)
	if cg, err = a.PassCompat(res); err != nil {
		t.Fatal(err)
	}
	if a.cb != cb || cg.G != g {
		t.Fatal("unchanged work DFG should reuse the builder and its graph")
	}
	if cg.G.Adjacent(u, v) {
		t.Fatal("a Build kept an edge no rule writes")
	}
	if a.stats.CompatNodes == 0 || a.stats.CompatEdges == 0 {
		t.Fatalf("compat stats not recorded: %+v", a.stats)
	}
	// The next II's attempt shares the builder, as mapAtII hands it over,
	// and resets it.
	next := NewAttempt(a.d, a.c, ii+1, Options{}, a.stats, nil)
	next.cb = cb
	res = next.PassSchedule()
	if res == nil {
		t.Fatal("fig2 should schedule at MII+1")
	}
	if cg, err = next.PassCompat(res); err != nil {
		t.Fatal(err)
	}
	if next.cb != cb || cg.G != g || cg.II != ii+1 {
		t.Fatal("the next II should reset the shared builder")
	}
}

func TestPassPlaceAssemblesValidMapping(t *testing.T) {
	a, ii := newTestAttempt(t, Options{})
	res := a.PassSchedule()
	if _, proceed := a.PassPrecheck(res); !proceed {
		t.Fatal("precheck rejected the MII schedule")
	}
	cg, err := a.PassCompat(res)
	if err != nil {
		t.Fatal(err)
	}
	m, unplaced := a.PassPlace(context.Background(), cg, res)
	if m == nil {
		t.Fatalf("fig2 places fully at MII on 1x2x2 (paper Figure 2d); unplaced=%v", unplaced)
	}
	if m.II != ii {
		t.Fatalf("mapping II = %d, want %d", m.II, ii)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPassLearnStallTriggersRelax(t *testing.T) {
	a, _ := newTestAttempt(t, Options{})
	res := a.PassSchedule()
	before := a.stats.Reschedules
	// Non-improving rounds: same unplaced size each time. The first sets the
	// bar, later rounds stall; the third stall reaches for PassRelax, which
	// on this placeable kernel inserts routes or thins rather than giving up.
	for i := 0; i < 5; i++ {
		if !a.PassLearn(res, []int{3}) {
			t.Fatalf("learning gave up on round %d", i)
		}
	}
	if a.stats.Reschedules <= before {
		t.Fatal("stalled learning never rescheduled")
	}
	if a.stats.RouteInserts+a.stats.Recomputes+a.stats.Thinnings == 0 {
		t.Fatal("three stalls should have triggered a structural relaxation")
	}
}

func TestPassRelaxThinsWhenRoutingDisabled(t *testing.T) {
	// A 2x2 array leaves thinning room: width starts at 4 and the floor is
	// ceil(4 ops / II=2) = 2.
	d := fig2DFG()
	a := NewAttempt(d, arch.NewMesh(2, 2, 4), 2, Options{DisableRouteInsertion: true}, &Stats{}, nil)
	res := a.PassSchedule()
	w := a.Width()
	if !a.PassRelax(res, []int{3}) {
		t.Fatal("thinning should still be available")
	}
	if a.Width() != w-1 || a.stats.Thinnings != 1 {
		t.Fatalf("width %d→%d, thinnings %d: want one thinning", w, a.Width(), a.stats.Thinnings)
	}
	// Thinning below ceil(N/II) must refuse and signal II escalation.
	for a.Width() >= ceilDiv(a.WorkDFG().N(), a.II()) {
		if !a.PassRelax(res, []int{3}) {
			break
		}
	}
	if a.PassRelax(res, []int{3}) {
		t.Fatal("relaxation should be exhausted below the width floor")
	}
}

func TestPipelinePassesEmitTraceEvents(t *testing.T) {
	sink := &obs.MemSink{}
	ctx := obs.With(context.Background(), obs.New(sink))
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	if _, _, err := Map(ctx, d, c, Options{}); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, name := range sink.Names() {
		got[name] = true
	}
	for _, want := range []string{
		"mii", "ii.attempt", "pass.schedule", "pass.compat", "pass.clique",
		"sched.schedule", "clique.grouped", "map.done",
	} {
		if !got[want] {
			t.Errorf("no %q event emitted; saw %v", want, sink.Names())
		}
	}
	for _, e := range sink.Events() {
		if e.Engine != "regimap" || e.Kernel != d.Name {
			t.Fatalf("event %q mislabelled: engine=%q kernel=%q", e.Name, e.Engine, e.Kernel)
		}
	}
}

// TestPipelineUntracedMatchesTraced guards the zero-cost claim's other half:
// tracing must be purely observational — identical mappings with and without
// a tracer in ctx.
func TestPipelineUntracedMatchesTraced(t *testing.T) {
	d1, d2 := fig2DFG(), fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	m1, s1, err1 := Map(context.Background(), d1, c, Options{})
	ctx := obs.With(context.Background(), obs.New(&obs.MemSink{}))
	m2, s2, err2 := Map(ctx, d2, c, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.II != s2.II || s1.Attempts != s2.Attempts {
		t.Fatalf("tracing changed the search: %+v vs %+v", s1, s2)
	}
	for v := range m1.PE {
		if m1.PE[v] != m2.PE[v] || m1.Time[v] != m2.Time[v] {
			t.Fatalf("tracing changed op %d: PE %d/%d T %d/%d", v, m1.PE[v], m2.PE[v], m1.Time[v], m2.Time[v])
		}
	}
}
