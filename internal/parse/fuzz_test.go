package parse

import (
	"strings"
	"testing"

	"mintc/internal/core"
)

// fuzzCircuitSeeds seed FuzzCircuit and FuzzCircuitLegacyParity.
var fuzzCircuitSeeds = []string{
	"",
	"clock 2\nlatch A phase 1 setup 1 dq 2\n",
	"clock 2\nlatch A phase 1 setup 1 dq 2\nlatch B phase 2 setup 1 dq 2\npath A -> B delay 5\n",
	"clock 1\nff F phase 1 setup 0.1 cq 0.2\npath F -> F delay 3 min 1 label loop\n",
	"clock 4\nphasename 2 pre\nmeta \"a b\" c\nlatch X phase 4 setup 0 dq 0 hold 1\n",
	"# comment\nclock 2\n latch \t A phase 1 setup 1 dq 2 # trailing\n",
	"clock 2\nlatch A phase 1 setup 1e300 dq 1e301\n",
	"clock 2\nlatch A phase 1 setup -1 dq 2\n",
	"clock x\n",
	strings.Repeat("clock 1\n", 3),
}

// FuzzCircuit checks that arbitrary input never panics the circuit
// parser, and that anything it accepts is a valid circuit whose
// round-trip through WriteCircuit re-parses to the same structure.
func FuzzCircuit(f *testing.F) {
	for _, s := range fuzzCircuitSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := CircuitString(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid circuit: %v\ninput: %q", err, src)
		}
		var buf strings.Builder
		if err := WriteCircuit(&buf, c); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := CircuitString(buf.String())
		if err != nil {
			t.Fatalf("round trip failed to re-parse: %v\n%s", err, buf.String())
		}
		if back.K() != c.K() || back.L() != c.L() || len(back.Paths()) != len(c.Paths()) {
			t.Fatalf("round trip changed structure: %q", src)
		}
	})
}

// FuzzSchedule checks the schedule parser likewise.
func FuzzSchedule(f *testing.F) {
	f.Add("schedule tc 100\nphase 1 start 0 width 50\n", 1)
	f.Add("schedule tc 1\nphase 1 start 0 width 1\nphase 2 start 0.5 width 0.2\n", 2)
	f.Add("", 1)
	f.Add("phase 1 start 0 width 1\n", 1)
	f.Fuzz(func(t *testing.T, src string, k int) {
		if k < 1 || k > 16 {
			return
		}
		sc, err := ScheduleString(src, k)
		if err != nil {
			return
		}
		if sc.K() != k {
			t.Fatalf("accepted schedule with wrong phase count")
		}
		var buf strings.Builder
		if err := WriteSchedule(&buf, sc); err != nil {
			t.Fatal(err)
		}
		back, err := ScheduleString(buf.String(), k)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !sc.Equal(back, 1e-9) && finite(sc) {
			t.Fatalf("round trip changed schedule: %v vs %v", sc, back)
		}
	})
}

func finite(sc *core.Schedule) bool {
	vals := append(append([]float64{sc.Tc}, sc.S...), sc.T...)
	for _, v := range vals {
		if v != v || v > 1e308 || v < -1e308 {
			return false
		}
	}
	return true
}
