package regimap_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
)

// TestEveryEngineHonoursIIWindow: a request's II window means the same on
// every registered engine. With MinII m the engine maps at II >= m or
// reports no mapping; with MaxII M, at II <= M or no mapping. dotprod_sat
// maps at II 3 on paper-4x4, so the floor of 5 binds; DRESC anneals the
// smaller rgb2gray.
func TestEveryEngineHonoursIIWindow(t *testing.T) {
	c, err := arch.Resolve("paper-4x4")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		kernel := "dotprod_sat"
		if name == "dresc" {
			kernel = "rgb2gray"
		}
		k, ok := kernels.ByName(kernel)
		if !ok {
			t.Fatalf("no kernel %s", kernel)
		}
		for _, eo := range []engine.Options{{MinII: 5}, {MaxII: 3}} {
			t.Run(fmt.Sprintf("%s/min%d/max%d", name, eo.MinII, eo.MaxII), func(t *testing.T) {
				res, err := engine.MustLookup(name).Map(context.Background(), k.Build(), c, eo)
				switch {
				case err != nil:
					if !errors.Is(err, maperr.ErrNoMapping) {
						t.Fatalf("%s: %v, want a mapping or ErrNoMapping", kernel, err)
					}
				case eo.MinII > 0 && res.II < eo.MinII:
					t.Fatalf("%s: II %d below MinII %d", kernel, res.II, eo.MinII)
				case eo.MaxII > 0 && res.II > eo.MaxII:
					t.Fatalf("%s: II %d above MaxII %d", kernel, res.II, eo.MaxII)
				}
			})
		}
	}
}

// TestEveryEngineRejectsForeignOptions: an Extra of the wrong type is a
// *engine.BadOptionsError naming the engine's own options type, on every
// registered engine.
func TestEveryEngineRejectsForeignOptions(t *testing.T) {
	k, _ := kernels.ByName("fir8")
	c := arch.NewMesh(4, 4, 4)
	for _, name := range engine.Names() {
		_, err := engine.MustLookup(name).Map(context.Background(), k.Build(), c, engine.Options{Extra: 42})
		var bad *engine.BadOptionsError
		if !errors.As(err, &bad) {
			t.Fatalf("%s: err = %v, want *engine.BadOptionsError", name, err)
		}
		pkg := name
		if name == "regimap" {
			pkg = "core"
		}
		if want := pkg + ".Options"; bad.Engine != name || bad.Want != want {
			t.Fatalf("%s: %+v, want Engine %q and Want %q", name, bad, name, want)
		}
	}
}
