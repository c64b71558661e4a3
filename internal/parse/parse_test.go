package parse

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

const example1Src = `
# Example 1 of the paper (Fig. 5)
clock 2
latch L1 phase 1 setup 10 dq 10
latch L2 phase 2 setup 10 dq 10
latch L3 phase 1 setup 10 dq 10
latch L4 phase 2 setup 10 dq 10
path L1 -> L2 delay 20 label La
path L2 -> L3 delay 20 label Lb
path L3 -> L4 delay 60 label Lc
path L4 -> L1 delay 80 label Ld
`

func TestParseExample1MatchesBuiltin(t *testing.T) {
	c, err := CircuitString(example1Src)
	if err != nil {
		t.Fatal(err)
	}
	want := circuits.Example1(80)
	if c.K() != want.K() || c.L() != want.L() || len(c.Paths()) != len(want.Paths()) {
		t.Fatalf("structure mismatch: k=%d l=%d p=%d", c.K(), c.L(), len(c.Paths()))
	}
	r1, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.MinTc(want, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Schedule.Tc-r2.Schedule.Tc) > 1e-9 {
		t.Errorf("parsed circuit Tc %g != builtin %g", r1.Schedule.Tc, r2.Schedule.Tc)
	}
}

func TestParseFFAndHold(t *testing.T) {
	c, err := CircuitString(`
clock 1
ff PC phase 1 setup 0.15 cq 0.25
latch A phase 1 setup 1 dq 2 hold 0.5
path PC -> A delay 3 min 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sync(0).Kind != core.FlipFlop || c.Sync(0).DQ != 0.25 {
		t.Errorf("FF parsed wrong: %+v", c.Sync(0))
	}
	if c.Sync(1).Hold != 0.5 {
		t.Errorf("hold = %g, want 0.5", c.Sync(1).Hold)
	}
	if p := c.Paths()[0]; p.MinDelay != 1 || p.Delay != 3 {
		t.Errorf("path = %+v", p)
	}
}

func TestParsePhaseNameAndMeta(t *testing.T) {
	c, err := CircuitString(`
clock 2
phasename 2 precharge
meta "Register File" "16,085"
latch A phase 1 setup 1 dq 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.PhaseName(1) != "precharge" {
		t.Errorf("phase name = %q", c.PhaseName(1))
	}
	if c.Meta["Register File"] != "16,085" {
		t.Errorf("meta = %v", c.Meta)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no clock", "latch A phase 1 setup 1 dq 1\n", "before clock"},
		{"bad clock", "clock x\n", "invalid phase count"},
		{"dup clock", "clock 1\nclock 2\n", "duplicate clock"},
		{"bad phase", "clock 2\nlatch A phase 9 setup 1 dq 1\n", "outside 1..2"},
		{"dup sync", "clock 1\nlatch A phase 1 setup 1 dq 1\nlatch A phase 1 setup 1 dq 1\n", "duplicate synchronizer"},
		{"unknown sync in path", "clock 1\nlatch A phase 1 setup 1 dq 1\npath A -> B delay 1\n", "unknown synchronizer"},
		{"path no delay", "clock 1\nlatch A phase 1 setup 1 dq 1\npath A -> A label x\n", "missing delay"},
		{"missing arrow", "clock 1\nlatch A phase 1 setup 1 dq 1\npath A A delay 1\n", "usage: path"},
		{"cq on latch", "clock 1\nlatch A phase 1 setup 1 cq 1\n", `use "dq"`},
		{"dq on ff", "clock 1\nff A phase 1 setup 1 dq 1\n", `use "cq"`},
		{"unknown attr", "clock 1\nlatch A phase 1 setup 1 dq 1 zap 3\n", "unknown attribute"},
		{"missing value", "clock 1\nlatch A phase 1 setup\n", "missing value"},
		{"unknown directive", "clock 1\nwibble 3\n", "unknown directive"},
		{"unterminated string", "clock 1\nmeta \"abc def\n", "unterminated string"},
		{"empty file", "\n# only comments\n", "no clock directive"},
		{"missing phase", "clock 2\nlatch A setup 1 dq 1\n", "missing phase"},
		{"validate fails", "clock 1\nlatch A phase 1 setup 5 dq 1\n", "DQ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CircuitString(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := CircuitString("clock 1\nlatch A phase 1 setup 1 dq 1\nbogus\n")
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Line != 3 {
		t.Errorf("error line = %d, want 3", perr.Line)
	}
}

func TestScheduleParse(t *testing.T) {
	sc, err := ScheduleString(`
schedule tc 110
phase 1 start 0 width 55
phase 2 start 55 width 55
`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tc != 110 || sc.S[1] != 55 || sc.T[0] != 55 {
		t.Errorf("schedule = %v", sc)
	}
}

func TestScheduleParseErrors(t *testing.T) {
	cases := []struct{ src, wantErr string }{
		{"phase 1 start 0 width 5\n", "missing Tc"},
		{"schedule tc 10\n", "missing phase 1"},
		{"schedule tc 10\nphase 5 start 0 width 1\n", "outside"},
		{"schedule tc 10\nphase 1 begin 0 width 1\n", "usage: phase"},
	}
	for _, tc := range cases {
		if _, err := ScheduleString(tc.src, 1); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("src %q: err %v, want %q", tc.src, err, tc.wantErr)
		}
	}
}

func TestCircuitRoundTrip(t *testing.T) {
	orig := circuits.GaAsMIPS()
	var buf bytes.Buffer
	if err := WriteCircuit(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := CircuitString(buf.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if back.K() != orig.K() || back.L() != orig.L() || len(back.Paths()) != len(orig.Paths()) {
		t.Fatal("round trip changed structure")
	}
	for i := 0; i < orig.L(); i++ {
		a, b := orig.Sync(i), back.Sync(i)
		if a.Name != b.Name || a.Phase != b.Phase || a.Kind != b.Kind || a.Setup != b.Setup || a.DQ != b.DQ || a.Hold != b.Hold {
			t.Errorf("sync %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range orig.Paths() {
		a, b := orig.Paths()[i], back.Paths()[i]
		if a != b {
			t.Errorf("path %d differs: %+v vs %+v", i, a, b)
		}
	}
	r1, err := core.MinTc(orig, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.MinTc(back, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Schedule.Tc-r2.Schedule.Tc) > 1e-12 {
		t.Errorf("round-trip Tc changed: %g vs %g", r1.Schedule.Tc, r2.Schedule.Tc)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	sc := core.SymmetricSchedule(3, 99.5, 0.4)
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, sc); err != nil {
		t.Fatal(err)
	}
	back, err := ScheduleString(buf.String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Equal(back, 1e-12) {
		t.Errorf("round trip: %v vs %v", sc, back)
	}
}

func TestTokenizeQuotesAndComments(t *testing.T) {
	toks, err := tokenize(nil, `meta "a b" c#comment`, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"meta", "a b", "c"}
	if len(toks) != len(want) {
		t.Fatalf("toks = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("tok %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestQuotedNameEscaping(t *testing.T) {
	// Names containing quotes and backslashes survive the round trip
	// (regression for a fuzzer-found writer/tokenizer mismatch).
	c := core.NewCircuit(1)
	c.AddLatch(`we"ird\name`, 0, 1, 2)
	c.AddLatch("", 0, 1, 2)
	c.AddPath(0, 1, 5)
	var buf bytes.Buffer
	if err := WriteCircuit(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := CircuitString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if back.SyncName(0) != `we"ird\name` {
		t.Errorf("name = %q", back.SyncName(0))
	}
}

func TestTokenizeEscapes(t *testing.T) {
	toks, err := tokenize(nil, `meta "a\"b\\c" x`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1] != `a"b\c` {
		t.Errorf("toks = %q", toks)
	}
	if _, err := tokenize(nil, `meta "dangling\`, 1); err == nil {
		t.Error("dangling escape accepted")
	}
}

func TestClockCountBounded(t *testing.T) {
	// Regression for a fuzzer-found resource exhaustion: absurd phase
	// counts must be rejected, not allocated.
	if _, err := CircuitString("clock 71400000\n"); err == nil {
		t.Fatal("huge phase count accepted")
	}
	if _, err := CircuitString("clock 4096\nlatch A phase 1 setup 1 dq 1\n"); err != nil {
		t.Fatalf("max phase count rejected: %v", err)
	}
}
