// Package parse implements the .smo circuit-description language: a
// small line-oriented format for the circuits and clock schedules
// consumed by the timing tools (the paper's §V mentions "a simple
// parser" in its MLP implementation; this is ours).
//
// Circuit files look like:
//
//	# Example 1 of the paper (Fig. 5)
//	clock 2
//	latch L1 phase 1 setup 10 dq 10
//	latch L2 phase 2 setup 10 dq 10
//	ff    PC phase 1 setup 0.15 cq 0.25
//	path  L1 -> L2 delay 20 label La
//	path  L2 -> L1 delay 80 min 40
//	phasename 1 precharge
//	meta "Register File" "16,085"
//
// Schedule files (for checkTc-style analysis) look like:
//
//	schedule tc 110
//	phase 1 start 0  width 55
//	phase 2 start 55 width 55
//
// Phases are 1-based in files, matching the paper's notation; the
// in-memory model is 0-based.
package parse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mintc/internal/core"
)

// maxPhases bounds the clock directive: real multiphase clocks have a
// handful of phases, and an unbounded count would let a malformed file
// demand gigabytes of phase bookkeeping.
const maxPhases = 4096

// Error is a parse error with position information.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// circuitLineLimit and scheduleLineLimit bound one line, counting its
// newline: a longer line fails with bufio.ErrTooLong. They are the
// buffer limits of the bufio.Scanner loops the parsers once ran.
const (
	circuitLineLimit  = 1 << 20
	scheduleLineLimit = bufio.MaxScanTokenSize
)

// Circuit parses a circuit description read to the end of r.
func Circuit(r io.Reader) (*core.Circuit, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return CircuitString(src)
}

// CircuitString parses a circuit from a string. The circuit keeps no
// reference into s: names, labels, phase names and meta entries are
// copied out, so a 16 MB file or a request body is not kept alive by
// the circuit parsed from it.
func CircuitString(s string) (*core.Circuit, error) {
	nSync, nPath := presize(s)
	var (
		k          int // 0 until the clock directive
		syncs      = make([]core.Synchronizer, 0, nSync)
		paths      = make([]core.Path, 0, nPath)
		byName     = make(map[string]int, nSync)
		phaseNames []phaseName
		meta       map[string]string
		sc         = scanner{s: s, limit: circuitLineLimit}
	)
	for {
		toks, err := sc.next()
		if err != nil {
			return nil, err
		}
		if toks == nil {
			break
		}
		lineNo := sc.no
		switch strings.ToLower(toks[0]) {
		case "clock":
			if k != 0 {
				return nil, errf(lineNo, "duplicate clock directive")
			}
			if len(toks) != 2 {
				return nil, errf(lineNo, "usage: clock <k>")
			}
			n, err := strconv.Atoi(toks[1])
			if err != nil || n < 1 || n > maxPhases {
				return nil, errf(lineNo, "invalid phase count %q (want 1..%d)", toks[1], maxPhases)
			}
			k = n
		case "latch", "ff":
			if k == 0 {
				return nil, errf(lineNo, "%s before clock directive", toks[0])
			}
			sync, err := parseSync(toks, lineNo, k)
			if err != nil {
				return nil, err
			}
			// One map operation: a name already present does not grow
			// the map.
			if byName[sync.Name] = len(syncs); len(byName) == len(syncs) {
				return nil, errf(lineNo, "duplicate synchronizer %q", sync.Name)
			}
			syncs = append(syncs, sync)
		case "path":
			if k == 0 {
				return nil, errf(lineNo, "path before clock directive")
			}
			p, err := parsePath(toks, lineNo, byName)
			if err != nil {
				return nil, err
			}
			paths = append(paths, p)
		case "phasename":
			if k == 0 {
				return nil, errf(lineNo, "phasename before clock directive")
			}
			if len(toks) != 3 {
				return nil, errf(lineNo, "usage: phasename <i> <name>")
			}
			p, err := phaseIndex(toks[1], k)
			if err != nil {
				return nil, errf(lineNo, "%v", err)
			}
			phaseNames = append(phaseNames, phaseName{p, strings.Clone(toks[2])})
		case "meta":
			if k == 0 {
				return nil, errf(lineNo, "meta before clock directive")
			}
			if len(toks) != 3 {
				return nil, errf(lineNo, "usage: meta <key> <value>")
			}
			if meta == nil {
				meta = map[string]string{}
			}
			meta[strings.Clone(toks[1])] = strings.Clone(toks[2])
		default:
			return nil, errf(lineNo, "unknown directive %q", toks[0])
		}
	}
	if k == 0 {
		return nil, errf(sc.no, "no clock directive found")
	}
	copyNames(syncs, paths)
	c := core.Build(k, syncs, paths)
	for _, pn := range phaseNames {
		c.SetPhaseName(pn.phase, pn.name)
	}
	c.Meta = meta
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// presize estimates the synchronizer and path counts of a circuit file
// from its line starts: WriteCircuit begins every synchronizer line
// with "latch " or "ff " and every path line with "path "; another
// spelling only costs regrowth. The bounds, the shortest valid lines of
// each kind with their newline, keep a hostile file from reserving
// more than a valid file of its size would need.
func presize(s string) (nSync, nPath int) {
	for i := 0; ; {
		n := strings.IndexByte(s[i:], '\n')
		if n < 0 {
			break
		}
		i += n + 1
		switch line := s[i:]; {
		case strings.HasPrefix(line, "path "):
			nPath++
		case strings.HasPrefix(line, "latch "), strings.HasPrefix(line, "ff "):
			nSync++
		}
	}
	return min(nSync+1, len(s)/len("ff a phase 1\n")+1), min(nPath+1, len(s)/len("path a -> b delay 1\n")+1)
}

// phaseName is one phasename directive, applied in file order.
type phaseName struct {
	phase int
	name  string
}

// copyNames moves every synchronizer name and path label out of the
// input text into one string of their own.
func copyNames(syncs []core.Synchronizer, paths []core.Path) {
	n := 0
	for i := range syncs {
		n += len(syncs[i].Name)
	}
	for i := range paths {
		n += len(paths[i].Label)
	}
	var b strings.Builder
	b.Grow(n)
	for i := range syncs {
		b.WriteString(syncs[i].Name)
	}
	for i := range paths {
		b.WriteString(paths[i].Label)
	}
	arena := b.String()
	for i := range syncs {
		syncs[i].Name, arena = arena[:len(syncs[i].Name)], arena[len(syncs[i].Name):]
	}
	for i := range paths {
		paths[i].Label, arena = arena[:len(paths[i].Label)], arena[len(paths[i].Label):]
	}
}

func parseSync(toks []string, line, k int) (core.Synchronizer, error) {
	var s core.Synchronizer
	kind := strings.ToLower(toks[0])
	if kind == "ff" {
		s.Kind = core.FlipFlop
	}
	if len(toks) < 2 {
		return s, errf(line, "usage: %s <name> phase <i> setup <t> %s <t> [hold <t>]", kind, dqKeyword(s.Kind))
	}
	s.Name = toks[1]
	s.Phase = -1
	i := 2
	for i < len(toks) {
		if i+1 >= len(toks) {
			return s, errf(line, "missing value after %q", toks[i])
		}
		key, val := strings.ToLower(toks[i]), toks[i+1]
		i += 2
		switch key {
		case "phase":
			p, err := phaseIndex(val, k)
			if err != nil {
				return s, errf(line, "%v", err)
			}
			s.Phase = p
		case "setup":
			f, err := parseFloat(val)
			if err != nil {
				return s, errf(line, "bad setup %q", val)
			}
			s.Setup = f
		case "dq", "cq":
			if key != dqKeyword(s.Kind) {
				return s, errf(line, "use %q for a %s", dqKeyword(s.Kind), toks[0])
			}
			f, err := parseFloat(val)
			if err != nil {
				return s, errf(line, "bad %s %q", key, val)
			}
			s.DQ = f
		case "hold":
			f, err := parseFloat(val)
			if err != nil {
				return s, errf(line, "bad hold %q", val)
			}
			s.Hold = f
		default:
			return s, errf(line, "unknown attribute %q", key)
		}
	}
	if s.Phase < 0 {
		return s, errf(line, "synchronizer %q missing phase", s.Name)
	}
	return s, nil
}

func dqKeyword(k core.ElementKind) string {
	if k == core.FlipFlop {
		return "cq"
	}
	return "dq"
}

func parsePath(toks []string, line int, byName map[string]int) (core.Path, error) {
	p := core.Path{MinDelay: -1}
	// path <from> -> <to> delay <d> [min <d>] [label <s>]
	if len(toks) < 6 || toks[2] != "->" {
		return p, errf(line, "usage: path <from> -> <to> delay <d> [min <d>] [label <s>]")
	}
	from, ok := byName[toks[1]]
	if !ok {
		return p, errf(line, "unknown synchronizer %q", toks[1])
	}
	to, ok := byName[toks[3]]
	if !ok {
		return p, errf(line, "unknown synchronizer %q", toks[3])
	}
	p.From, p.To = from, to
	i := 4
	sawDelay := false
	for i < len(toks) {
		if i+1 >= len(toks) {
			return p, errf(line, "missing value after %q", toks[i])
		}
		key, val := strings.ToLower(toks[i]), toks[i+1]
		i += 2
		switch key {
		case "delay":
			f, err := parseFloat(val)
			if err != nil {
				return p, errf(line, "bad delay %q", val)
			}
			p.Delay = f
			sawDelay = true
		case "min":
			f, err := parseFloat(val)
			if err != nil {
				return p, errf(line, "bad min delay %q", val)
			}
			p.MinDelay = f
		case "label":
			p.Label = val
		default:
			return p, errf(line, "unknown attribute %q", key)
		}
	}
	if !sawDelay {
		return p, errf(line, "path missing delay")
	}
	return p, nil
}

// Schedule parses a clock-schedule description for a k-phase clock,
// read to the end of r.
func Schedule(r io.Reader, k int) (*core.Schedule, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ScheduleString(src, k)
}

// ScheduleString parses a schedule from a string.
func ScheduleString(s string, k int) (*core.Schedule, error) {
	sched := core.NewSchedule(k)
	seenTc := false
	seen := make([]bool, k)
	sc := scanner{s: s, limit: scheduleLineLimit}
	for {
		toks, err := sc.next()
		if err != nil {
			return nil, err
		}
		if toks == nil {
			break
		}
		lineNo := sc.no
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
			// phase <i> start <s> width <w>
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
	if !seenTc {
		return nil, errf(sc.no, "schedule missing Tc")
	}
	for p, ok := range seen {
		if !ok {
			return nil, errf(sc.no, "schedule missing phase %d", p+1)
		}
	}
	return sched, nil
}

// readAll reads r to the end into a string, copying the bytes once.
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return "", err
	}
	return b.String(), nil
}

func phaseIndex(tok string, k int) (int, error) {
	p, err := strconv.Atoi(tok)
	if err != nil || p < 1 || p > k {
		return 0, fmt.Errorf("phase %q outside 1..%d", tok, k)
	}
	return p - 1, nil
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return f, nil
}

// scanner yields the tokens of each line of s that has any. It splits
// lines as bufio.ScanLines does: at each '\n', with one trailing '\r'
// dropped, and a last line without a newline still counted.
type scanner struct {
	s     string
	pos   int
	no    int      // 1-based number of the line last scanned
	limit int      // see circuitLineLimit
	toks  []string // reused by every line
}

// next returns the tokens of the next line that has any, or nil at the
// end of s. The next call reuses the slice.
func (sc *scanner) next() ([]string, error) {
	for sc.pos < len(sc.s) {
		rest := sc.s[sc.pos:]
		n := strings.IndexByte(rest, '\n')
		if n < 0 {
			n = len(rest)
		}
		if n >= sc.limit {
			return nil, bufio.ErrTooLong
		}
		sc.pos += min(n+1, len(rest))
		sc.no++
		line := rest[:n]
		if n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		toks, err := tokenize(sc.toks, line, sc.no)
		if err != nil {
			return nil, err
		}
		if sc.toks = toks; len(toks) > 0 {
			return toks, nil
		}
	}
	return nil, nil
}

// sep marks the bytes that end an unquoted token.
var sep = [256]bool{' ': true, '\t': true, '\r': true, '#': true}

// tokenize splits a line into tokens, honoring double-quoted strings
// and '#' comments. It reuses toks' backing array; the tokens are
// substrings of line, except a quoted string with escapes, which is
// the only token that allocates.
func tokenize(toks []string, line string, lineNo int) ([]string, error) {
	toks = toks[:0]
	i := 0
	for i < len(line) {
		switch ch := line[i]; {
		case ch == '#':
			return toks, nil
		case sep[ch]:
			i++
		case ch == '"':
			tok, n, err := quoted(line[i:], lineNo)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i += n
		default:
			j := i + 1
			for j < len(line) && !sep[line[j]] {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

// quoted reads the double-quoted string that s starts with, where a
// backslash escapes the byte after it, and returns the string and the
// number of bytes it spans.
func quoted(s string, lineNo int) (string, int, error) {
	for j := 1; j < len(s); j++ {
		switch s[j] {
		case '"':
			return s[1:j], j + 1, nil
		case '\\':
			return unescape(s, j, lineNo)
		}
	}
	return "", 0, errf(lineNo, "unterminated string")
}

// unescape finishes quoted from s[j], the string's first backslash.
func unescape(s string, j, lineNo int) (string, int, error) {
	var sb strings.Builder
	sb.WriteString(s[1:j])
	for j < len(s) {
		switch s[j] {
		case '\\':
			if j+1 >= len(s) {
				return "", 0, errf(lineNo, "dangling escape in string")
			}
			sb.WriteByte(s[j+1])
			j += 2
		case '"':
			return sb.String(), j + 1, nil
		default:
			sb.WriteByte(s[j])
			j++
		}
	}
	return "", 0, errf(lineNo, "unterminated string")
}

// WriteCircuit renders a circuit back into the .smo format, suitable
// for re-parsing (round-trip property used by the tools and tests).
// Numbers are written as fmt's %g and %d would write them, without fmt.
func WriteCircuit(w io.Writer, c *core.Circuit) error {
	bw := bufio.NewWriter(w)
	b := strconv.AppendInt(append(make([]byte, 0, 128), "clock "...), int64(c.K()), 10)
	bw.Write(append(b, '\n'))
	for p := 0; p < c.K(); p++ {
		if name := c.PhaseName(p); name != "phi"+strconv.Itoa(p+1) {
			b = strconv.AppendInt(append(b[:0], "phasename "...), int64(p+1), 10)
			b = append(append(append(b, ' '), quoteIfNeeded(name)...), '\n')
			bw.Write(b)
		}
	}
	for i, s := range c.Syncs() {
		kind, dq := "latch ", " dq "
		if s.Kind == core.FlipFlop {
			kind, dq = "ff ", " cq "
		}
		b = append(append(b[:0], kind...), quoteIfNeeded(c.SyncName(i))...)
		b = strconv.AppendInt(append(b, " phase "...), int64(s.Phase+1), 10)
		b = appendG(append(b, " setup "...), s.Setup)
		b = appendG(append(b, dq...), s.DQ)
		if s.Hold > 0 {
			b = appendG(append(b, " hold "...), s.Hold)
		}
		bw.Write(append(b, '\n'))
	}
	for _, p := range c.Paths() {
		b = append(append(b[:0], "path "...), quoteIfNeeded(c.SyncName(p.From))...)
		b = append(append(b, " -> "...), quoteIfNeeded(c.SyncName(p.To))...)
		b = appendG(append(b, " delay "...), p.Delay)
		if p.MinDelay != p.Delay {
			b = appendG(append(b, " min "...), p.MinDelay)
		}
		if p.Label != "" {
			b = append(append(b, " label "...), quoteIfNeeded(p.Label)...)
		}
		bw.Write(append(b, '\n'))
	}
	metaKeys := make([]string, 0, len(c.Meta))
	for k := range c.Meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	for _, k := range metaKeys {
		b = append(append(b[:0], "meta "...), quoteIfNeeded(k)...)
		b = append(append(append(b, ' '), quoteIfNeeded(c.Meta[k])...), '\n')
		bw.Write(b)
	}
	return bw.Flush()
}

// WriteSchedule renders a schedule in the .smo schedule format.
func WriteSchedule(w io.Writer, sc *core.Schedule) error {
	bw := bufio.NewWriter(w)
	b := appendG(append(make([]byte, 0, 64), "schedule tc "...), sc.Tc)
	bw.Write(append(b, '\n'))
	for p := range sc.S {
		b = strconv.AppendInt(append(b[:0], "phase "...), int64(p+1), 10)
		b = appendG(append(b, " start "...), sc.S[p])
		b = appendG(append(b, " width "...), sc.T[p])
		bw.Write(append(b, '\n'))
	}
	return bw.Flush()
}

// appendG appends v as fmt's %g verb formats a float64.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\"#\\") {
		s = strings.ReplaceAll(s, `\`, `\\`)
		s = strings.ReplaceAll(s, `"`, `\"`)
		return `"` + s + `"`
	}
	return s
}
