package main

import (
	"reflect"
	"strings"
	"testing"

	"regimap/internal/engine"
)

func TestUnknownMapperMessageListsRegistry(t *testing.T) {
	msg := unknownMapperMessage("no-such-mapper")
	if !strings.Contains(msg, `unknown mapper "no-such-mapper"`) {
		t.Fatalf("message does not name the bad mapper:\n%s", msg)
	}
	// Pin the registry exactly, so a re-registered duplicate engine fails.
	names := engine.Names()
	if want := []string{"dresc", "ems", "exact", "regimap", "resilient"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("registry = %v, want exactly %v", names, want)
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Fatalf("message does not list engine %q:\n%s", n, msg)
		}
		m, _ := engine.Lookup(n)
		if d := engine.Describe(m); d != "" && !strings.Contains(msg, d) {
			t.Fatalf("message does not describe engine %q:\n%s", n, msg)
		}
	}
}
