package obs

import (
	"testing"
)

func TestCountByName(t *testing.T) {
	sink := &MemSink{}
	tr := New(sink)
	for i := 0; i < 3; i++ {
		tr.Point("ii.attempt", "ii", int64(2+i), "", 0, "", 0)
	}
	tr.Point1("memo.hit", "n", 1)
	counts := sink.CountByName()
	if counts["ii.attempt"] != 3 || counts["memo.hit"] != 1 {
		t.Fatalf("CountByName = %v", counts)
	}
	sink.Reset()
	if len(sink.CountByName()) != 0 {
		t.Fatal("Reset did not clear the counts")
	}
}

func TestTee(t *testing.T) {
	a, b := &MemSink{}, &MemSink{}
	tr := New(Tee(a, nil, b))
	tr.Point1("memo.hit", "n", 1)
	if got := a.CountByName()["memo.hit"]; got != 1 {
		t.Fatalf("first sink saw %d", got)
	}
	if got := b.CountByName()["memo.hit"]; got != 1 {
		t.Fatalf("second sink saw %d", got)
	}
	if Tee() != nil {
		t.Fatal("empty Tee is not nil")
	}
	if Tee(nil, a) != Sink(a) {
		t.Fatal("single-sink Tee does not collapse to the sink itself")
	}
}
