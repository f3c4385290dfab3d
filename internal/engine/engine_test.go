package engine

import (
	"context"
	"strings"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
)

type fake struct {
	name string
	desc string
}

func (f fake) Name() string { return f.name }
func (f fake) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*Result, error) {
	return &Result{MII: 1, II: 2, Rounds: 3}, nil
}
func (f fake) Describe() string { return f.desc }

func TestRegistry(t *testing.T) {
	Register(fake{name: "fake-a", desc: "a fake"})
	Register(fake{name: "fake-b"})

	if _, ok := Lookup("fake-a"); !ok {
		t.Fatal("fake-a not found after Register")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup invented an engine")
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		if n == "fake-a" {
			ia = i
		}
		if n == "fake-b" {
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("Names() = %v: want fake-a before fake-b", names)
	}

	m := MustLookup("fake-a")
	if Describe(m) != "a fake" {
		t.Fatalf("Describe = %q", Describe(m))
	}
	if Describe(MustLookup("fake-b")) != "" {
		t.Fatal("describer-less engine should describe as empty")
	}
	res, err := m.Map(context.Background(), nil, nil, Options{})
	if err != nil || res.II != 2 {
		t.Fatalf("Map = %+v, %v", res, err)
	}
	if p := res.Perf(); p != 0.5 {
		t.Fatalf("Perf = %v, want 0.5", p)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fake{name: "fake-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fake{name: "fake-dup"})
}

func TestMustLookupPanicsWithNames(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("MustLookup on unknown name did not panic")
		}
		if !strings.Contains(v.(string), "no engine") {
			t.Fatalf("panic message %q", v)
		}
	}()
	MustLookup("definitely-not-registered")
}

func TestResultPerfNilAndFailed(t *testing.T) {
	var r *Result
	if r.Perf() != 0 {
		t.Fatal("nil Result Perf != 0")
	}
	if (&Result{MII: 2}).Perf() != 0 {
		t.Fatal("failed Result Perf != 0")
	}
}

func TestBadOptionsError(t *testing.T) {
	err := &BadOptionsError{Engine: "dresc", Want: "dresc.Options", Got: 42}
	if !strings.Contains(err.Error(), "dresc.Options") || !strings.Contains(err.Error(), "int") {
		t.Fatalf("message %q", err)
	}
}

type fakeOptions struct{ MinII, MaxII, Knob int }

// TestTypedDecodesExtraAndWindow: Typed hands Run the zero options for a nil
// Extra and the caller's options as given, and Window lets only a positive
// request bound replace the engine's own.
func TestTypedDecodesExtraAndWindow(t *testing.T) {
	var got fakeOptions
	typed := Typed[fakeOptions]{Key: "fake-typed", Blurb: "typed", Run: func(ctx context.Context, d *dfg.DFG, c *arch.CGRA, o fakeOptions, eo Options) (*Result, error) {
		eo.Window(&o.MinII, &o.MaxII)
		got = o
		return &Result{}, nil
	}}
	if typed.Name() != "fake-typed" || Describe(typed) != "typed" {
		t.Fatalf("Name %q, Describe %q", typed.Name(), Describe(typed))
	}
	for _, tc := range []struct {
		eo   Options
		want fakeOptions
	}{
		{Options{}, fakeOptions{}},
		{Options{MinII: 3}, fakeOptions{MinII: 3}},
		{Options{Extra: fakeOptions{MinII: 2, MaxII: 9, Knob: 7}}, fakeOptions{MinII: 2, MaxII: 9, Knob: 7}},
		{Options{MaxII: 5, Extra: fakeOptions{MinII: 2, MaxII: 9, Knob: 7}}, fakeOptions{MinII: 2, MaxII: 5, Knob: 7}},
	} {
		if _, err := typed.Map(context.Background(), nil, nil, tc.eo); err != nil || got != tc.want {
			t.Fatalf("Map(%+v): Run saw %+v (err %v), want %+v", tc.eo, got, err, tc.want)
		}
	}
	_, err := typed.Map(context.Background(), nil, nil, Options{Extra: &fakeOptions{}})
	if bad, ok := err.(*BadOptionsError); !ok || bad.Engine != "fake-typed" || bad.Want != "engine.fakeOptions" {
		t.Fatalf("pointer Extra: err = %v, want a BadOptionsError wanting engine.fakeOptions", err)
	}
}
