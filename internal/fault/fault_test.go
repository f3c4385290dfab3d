package fault

import (
	"math/rand"
	"testing"

	"regimap/internal/arch"
)

func grid(t *testing.T) *arch.CGRA {
	t.Helper()
	return arch.NewMesh(4, 4, 4)
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"pe 1,2",
		"pe 0,0~2",
		"link 0,0-0,1",
		"link 1,1-2,1~5",
		"regs 1,1=2",
		"regs 3,3=0~1",
		"row 3",
		"pe 1,2; link 0,0-0,1; regs 1,1=2; row 3",
	}
	for _, text := range cases {
		s, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := s.String(); got != text {
			t.Errorf("Parse(%q).String() = %q", text, got)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.String(), err)
		}
		if again.String() != s.String() {
			t.Errorf("round trip of %q unstable: %q", text, again.String())
		}
	}
}

func TestParseSeparatorsAndComments(t *testing.T) {
	s, err := Parse("# header\npe 0,0 # broken in the corner\n\n  row 1 ;; link 2,0-2,1  \n# trailing")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "pe 0,0; row 1; link 2,0-2,1"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"pe",                        // no coordinates
		"pe 1",                      // not a pair
		"pe 1,2,3",                  // parsePair takes the first comma: "2,3" is a bad column
		"pe a,b",                    // not numbers
		"pe 1,2~0",                  // transient must clear after >= 1 round
		"pe 1,2~",                   // empty clear-after
		"pe +1,2",                   // no signs
		"link 0,0",                  // missing second endpoint
		"link 0,0-",                 // empty second endpoint
		"regs 1,1",                  // missing limit
		"regs 1,1=x",                // bad limit
		"row",                       // missing row
		"row x",                     // bad row
		"bus 3",                     // unknown kind
		"pe 99999999999999999999,0", // overflow guard
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestValidate(t *testing.T) {
	c := grid(t)
	bad := []string{
		"pe 4,0",       // row out of range
		"pe 0,4",       // col out of range
		"link 0,0-1,1", // diagonal: not a mesh link
		"link 0,0-0,2", // two hops
		"link 0,0-0,0", // self loop (caught syntactically? no: semantically)
		"regs 0,0=4",   // limit must be strictly below NumRegs
		"regs 0,0=9",   // above the file size
		"row 4",        // out of range
	}
	for _, text := range bad {
		s, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if err := s.Validate(c); err == nil {
			t.Errorf("Validate(%q) succeeded, want error", text)
		}
		if _, err := s.Apply(c); err == nil {
			t.Errorf("Apply(%q) succeeded, want error", text)
		}
	}
}

func TestApplyEmptyReturnsSameArray(t *testing.T) {
	c := grid(t)
	for _, s := range []*Set{nil, {}, mustParse(t, "")} {
		got, err := s.Apply(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatal("empty set must return the identical *CGRA, not a clone")
		}
	}
}

func TestApplyFaults(t *testing.T) {
	c := grid(t)
	s := mustParse(t, "pe 1,1; link 0,0-0,1; regs 2,2=1; row 3")
	fc, err := s.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Healthy() || c.UsablePEs() != 16 {
		t.Fatal("Apply mutated the input array")
	}
	if fc.Healthy() {
		t.Fatal("faulted view reports healthy")
	}
	if fc.PEOk(c.PEAt(1, 1)) {
		t.Error("PE (1,1) should be broken")
	}
	if fc.Connected(c.PEAt(0, 0), c.PEAt(0, 1)) {
		t.Error("link (0,0)-(0,1) should be cut")
	}
	if got := fc.RegsAt(c.PEAt(2, 2)); got != 1 {
		t.Errorf("PE (2,2) has %d registers, want 1", got)
	}
	if fc.RowBusOK(3) {
		t.Error("row 3's bus should be dead")
	}
	if got := fc.UsablePEs(); got != 15 {
		t.Errorf("UsablePEs = %d, want 15", got)
	}
	if got := fc.UsableMemRows(); got != 3 {
		t.Errorf("UsableMemRows = %d, want 3", got)
	}
}

func TestApplyLinkIntoBrokenPE(t *testing.T) {
	// A cut link whose endpoint is also broken must not error: links are
	// applied first, and duplicates of an already-severed link are skipped.
	c := grid(t)
	s := mustParse(t, "pe 0,0; link 0,0-0,1; link 0,0-0,1")
	fc, err := s.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if fc.PEOk(0) || fc.Connected(0, 1) {
		t.Fatal("both faults should hold")
	}
}

func TestActiveAndTransience(t *testing.T) {
	s := mustParse(t, "pe 0,0~2; row 1; regs 1,1=0~1")
	if !s.HasTransient() {
		t.Fatal("set has transient faults")
	}
	if got := s.MaxClearAfter(); got != 2 {
		t.Fatalf("MaxClearAfter = %d, want 2", got)
	}
	wants := map[int]string{
		0: "pe 0,0~2; row 1; regs 1,1=0~1",
		1: "pe 0,0~2; row 1",
		2: "row 1",
		3: "row 1",
	}
	for round, want := range wants {
		if got := s.Active(round).String(); got != want {
			t.Errorf("Active(%d) = %q, want %q", round, got, want)
		}
	}
	if s.Active(99).HasTransient() {
		t.Error("only the permanent fault should remain")
	}
}

func TestRandomDeterministicAndValid(t *testing.T) {
	c := grid(t)
	a := Random(rand.New(rand.NewSource(7)), c, 5)
	b := Random(rand.New(rand.NewSource(7)), c, 5)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if len(a.Faults) != 5 {
		t.Fatalf("drew %d faults, want 5", len(a.Faults))
	}
	if err := a.Validate(c); err != nil {
		t.Fatalf("random set invalid: %v", err)
	}
	if _, err := a.Apply(c); err != nil {
		t.Fatalf("random set fails to apply: %v", err)
	}
	other := Random(rand.New(rand.NewSource(8)), c, 5)
	if a.String() == other.String() {
		t.Error("different seeds produced identical sets (suspicious)")
	}
}

func TestRandomStopsShortWhenExhausted(t *testing.T) {
	c := arch.NewMesh(1, 2, 2)
	s := Random(rand.New(rand.NewSource(1)), c, 1000)
	if len(s.Faults) >= 1000 {
		t.Fatalf("a 1x2 array cannot have 1000 distinct faults (got %d)", len(s.Faults))
	}
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func mustParse(t *testing.T, text string) *Set {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
