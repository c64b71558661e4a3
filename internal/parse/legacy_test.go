package parse

import (
	"bufio"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// The parsers as they were before the single-pass scanner: a
// bufio.Scanner line loop, a tokenizer that builds a fresh slice per
// line, and a circuit grown with AddSync/AddPathFull. They stay here
// only as the oracle the production parsers are checked against.

func legacyCircuit(r io.Reader) (*core.Circuit, error) {
	var (
		c      *core.Circuit
		byName = map[string]int{}
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		toks, err := legacyTokenize(sc.Text(), lineNo)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 {
			continue
		}
		switch strings.ToLower(toks[0]) {
		case "clock":
			if c != nil {
				return nil, errf(lineNo, "duplicate clock directive")
			}
			if len(toks) != 2 {
				return nil, errf(lineNo, "usage: clock <k>")
			}
			k, err := strconv.Atoi(toks[1])
			if err != nil || k < 1 || k > maxPhases {
				return nil, errf(lineNo, "invalid phase count %q (want 1..%d)", toks[1], maxPhases)
			}
			c = core.NewCircuit(k)
		case "latch", "ff":
			if c == nil {
				return nil, errf(lineNo, "%s before clock directive", toks[0])
			}
			sync, err := parseSync(toks, lineNo, c.K())
			if err != nil {
				return nil, err
			}
			if _, dup := byName[sync.Name]; dup {
				return nil, errf(lineNo, "duplicate synchronizer %q", sync.Name)
			}
			byName[sync.Name] = c.AddSync(sync)
		case "path":
			if c == nil {
				return nil, errf(lineNo, "path before clock directive")
			}
			p, err := parsePath(toks, lineNo, byName)
			if err != nil {
				return nil, err
			}
			c.AddPathFull(p)
		case "phasename":
			if c == nil {
				return nil, errf(lineNo, "phasename before clock directive")
			}
			if len(toks) != 3 {
				return nil, errf(lineNo, "usage: phasename <i> <name>")
			}
			p, err := phaseIndex(toks[1], c.K())
			if err != nil {
				return nil, errf(lineNo, "%v", err)
			}
			c.SetPhaseName(p, toks[2])
		case "meta":
			if c == nil {
				return nil, errf(lineNo, "meta before clock directive")
			}
			if len(toks) != 3 {
				return nil, errf(lineNo, "usage: meta <key> <value>")
			}
			if c.Meta == nil {
				c.Meta = map[string]string{}
			}
			c.Meta[toks[1]] = toks[2]
		default:
			return nil, errf(lineNo, "unknown directive %q", toks[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errf(lineNo, "no clock directive found")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func legacySchedule(r io.Reader, k int) (*core.Schedule, error) {
	sched := core.NewSchedule(k)
	seenTc := false
	seen := make([]bool, k)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		toks, err := legacyTokenize(sc.Text(), lineNo)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 {
			continue
		}
		switch strings.ToLower(toks[0]) {
		case "schedule":
			if len(toks) != 3 || strings.ToLower(toks[1]) != "tc" {
				return nil, errf(lineNo, "usage: schedule tc <t>")
			}
			f, err := parseFloat(toks[2])
			if err != nil {
				return nil, errf(lineNo, "bad Tc %q", toks[2])
			}
			sched.Tc = f
			seenTc = true
		case "phase":
			if len(toks) != 6 || strings.ToLower(toks[2]) != "start" || strings.ToLower(toks[4]) != "width" {
				return nil, errf(lineNo, "usage: phase <i> start <s> width <w>")
			}
			p, err := phaseIndex(toks[1], k)
			if err != nil {
				return nil, errf(lineNo, "%v", err)
			}
			s, err1 := parseFloat(toks[3])
			w, err2 := parseFloat(toks[5])
			if err1 != nil || err2 != nil {
				return nil, errf(lineNo, "bad start/width")
			}
			sched.S[p], sched.T[p] = s, w
			seen[p] = true
		default:
			return nil, errf(lineNo, "unknown directive %q", toks[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenTc {
		return nil, errf(lineNo, "schedule missing Tc")
	}
	for p, ok := range seen {
		if !ok {
			return nil, errf(lineNo, "schedule missing phase %d", p+1)
		}
	}
	return sched, nil
}

func legacyTokenize(line string, lineNo int) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		ch := line[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '#':
			return toks, nil
		case ch == '"':
			var sb strings.Builder
			j := i + 1
			closed := false
			for j < len(line) {
				switch line[j] {
				case '\\':
					if j+1 >= len(line) {
						return nil, errf(lineNo, "dangling escape in string")
					}
					sb.WriteByte(line[j+1])
					j += 2
				case '"':
					closed = true
				default:
					sb.WriteByte(line[j])
					j++
				}
				if closed {
					break
				}
			}
			if !closed {
				return nil, errf(lineNo, "unterminated string")
			}
			toks = append(toks, sb.String())
			i = j + 1
		default:
			j := i
			for j < len(line) && !strings.ContainsRune(" \t\r#", rune(line[j])) {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

// sameError reports whether two parser errors are the same: both nil,
// or the same text from the same kind of error (a positioned *Error
// matches only a positioned *Error).
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var pa, pb *Error
	if errors.As(a, &pa) != errors.As(b, &pb) {
		return false
	}
	return a.Error() == b.Error()
}

// sameCircuit reports the first difference between two parsed
// circuits, or "" when they are identical: phases, synchronizers and
// paths bit for bit, fanin lists, meta, and the rendered text.
func sameCircuit(a, b *core.Circuit) string {
	if a.K() != b.K() || a.L() != b.L() || len(a.Paths()) != len(b.Paths()) {
		return "shape"
	}
	for p := 0; p < a.K(); p++ {
		if a.PhaseName(p) != b.PhaseName(p) {
			return "phase name"
		}
	}
	for i, s := range a.Syncs() {
		t := b.Sync(i)
		if s.Name != t.Name || s.Phase != t.Phase || s.Kind != t.Kind ||
			!sameBits(s.Setup, t.Setup) || !sameBits(s.DQ, t.DQ) || !sameBits(s.Hold, t.Hold) {
			return "synchronizer"
		}
		if !reflect.DeepEqual(a.Fanin(i), b.Fanin(i)) {
			return "fanin"
		}
	}
	for i, p := range a.Paths() {
		q := b.Paths()[i]
		if p.From != q.From || p.To != q.To || p.Label != q.Label ||
			!sameBits(p.Delay, q.Delay) || !sameBits(p.MinDelay, q.MinDelay) {
			return "path"
		}
	}
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		return "meta"
	}
	var wa, wb strings.Builder
	if err := WriteCircuit(&wa, a); err != nil {
		return err.Error()
	}
	if err := WriteCircuit(&wb, b); err != nil {
		return err.Error()
	}
	if wa.String() != wb.String() {
		return "rendered text"
	}
	return ""
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkLegacyParity parses src with the production and the legacy
// parsers, as a circuit and as a 2-phase schedule, and fails on any
// difference in verdict, error or result.
func checkLegacyParity(t *testing.T, src string) {
	t.Helper()
	got, err := CircuitString(src)
	want, werr := legacyCircuit(strings.NewReader(src))
	if !sameError(err, werr) {
		t.Fatalf("circuit verdicts differ on %.200q: got %v, legacy %v", src, err, werr)
	}
	if err == nil {
		if d := sameCircuit(got, want); d != "" {
			t.Fatalf("circuits differ (%s) on %.200q", d, src)
		}
	}
	gs, err := ScheduleString(src, 2)
	ws, werr := legacySchedule(strings.NewReader(src), 2)
	if !sameError(err, werr) {
		t.Fatalf("schedule verdicts differ on %.200q: got %v, legacy %v", src, err, werr)
	}
	if err == nil && (!sameBits(gs.Tc, ws.Tc) || !reflect.DeepEqual(gs.S, ws.S) || !reflect.DeepEqual(gs.T, ws.T)) {
		t.Fatalf("schedules differ on %.200q: %v vs %v", src, gs, ws)
	}
}

// exampleFiles returns the text of every examples/*.smo file.
func exampleFiles(tb testing.TB) []string {
	tb.Helper()
	names, err := filepath.Glob("../../examples/*.smo")
	if err != nil || len(names) == 0 {
		tb.Fatalf("no example files: %v", err)
	}
	out := make([]string, len(names))
	for i, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// FuzzCircuitLegacyParity: the production parsers accept exactly what
// the legacy parsers accept, reject with the same positioned error, and
// build identical circuits and schedules.
func FuzzCircuitLegacyParity(f *testing.F) {
	for _, s := range fuzzCircuitSeeds {
		f.Add(s)
	}
	for _, s := range exampleFiles(f) {
		f.Add(s)
	}
	f.Add("clock 2\nlatch \"a\\\" b\" phase 1 setup 1 dq 2\r\nlatch B phase 2 setup 1 dq 2\npath \"a\\\" b\" -> B delay 5 label \"x\\\\\"\n")
	f.Add("clock 1\nmeta k \"v\\\r\n")
	f.Add("CLOCK 1\nFF x PHASE 1 SETUP 0 CQ 0\nPath x -> x Delay 1 MIN -3\nphasename 1 \"\"\nmeta a\"b c#d\n")
	f.Fuzz(checkLegacyParity)
}

// TestLegacyParityGen: every generated benchmark, rendered to text,
// parses to the same circuit under both parsers.
func TestLegacyParityGen(t *testing.T) {
	bs := append(append(gen.Suite(), gen.XLarge()...), gen.Huge()...)
	for _, b := range bs {
		var sb strings.Builder
		if err := WriteCircuit(&sb, b.Circuit); err != nil {
			t.Fatal(err)
		}
		t.Run(b.Name, func(t *testing.T) { checkLegacyParity(t, sb.String()) })
	}
}

// TestLegacyParityLineLimit: both parsers draw the line-length limit at
// the same byte, with and without a final newline and a '\r'.
func TestLegacyParityLineLimit(t *testing.T) {
	for _, limit := range []int{circuitLineLimit, scheduleLineLimit} {
		for n := limit - 2; n <= limit+1; n++ {
			for _, tail := range []string{"", "\n", "\r\n", "\nclock 1\n"} {
				line := "#" + strings.Repeat("x", n-1)
				checkLegacyParity(t, "clock 1\nlatch A phase 1\n"+line+tail)
			}
		}
	}
}

// TestParsedNamesDoNotAliasInput: nothing in a parsed circuit points
// into the input text, so the circuit does not keep the text alive.
func TestParsedNamesDoNotAliasInput(t *testing.T) {
	src := "clock 2\nphasename 2 pre\nmeta key value\nlatch Alpha phase 1 setup 1 dq 2\n" +
		"latch \"B\\\"q\" phase 2 setup 1 dq 2\npath Alpha -> \"B\\\"q\" delay 3 label La\n"
	c, err := CircuitString(src)
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{c.PhaseName(1), c.Paths()[0].Label}
	for _, s := range c.Syncs() {
		strs = append(strs, s.Name)
	}
	for k, v := range c.Meta {
		strs = append(strs, k, v)
	}
	for _, s := range strs {
		if aliases(s, src) {
			t.Errorf("%q points into the input text", s)
		}
	}
}

// aliases reports whether s's bytes lie inside in's.
func aliases(s, in string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(in)))
	return p >= lo && p < lo+uintptr(len(in))
}
