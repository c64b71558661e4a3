package parse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// fmtWriteCircuit and fmtWriteSchedule are the writers as they were
// before WriteCircuit dropped fmt: the reference its bytes must match.
func fmtWriteCircuit(w io.Writer, c *core.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "clock %d\n", c.K())
	for p := 0; p < c.K(); p++ {
		if c.PhaseName(p) != fmt.Sprintf("phi%d", p+1) {
			fmt.Fprintf(bw, "phasename %d %s\n", p+1, quoteIfNeeded(c.PhaseName(p)))
		}
	}
	for i, s := range c.Syncs() {
		kind, dq := "latch", "dq"
		if s.Kind == core.FlipFlop {
			kind, dq = "ff", "cq"
		}
		fmt.Fprintf(bw, "%s %s phase %d setup %g %s %g", kind, quoteIfNeeded(c.SyncName(i)), s.Phase+1, s.Setup, dq, s.DQ)
		if s.Hold > 0 {
			fmt.Fprintf(bw, " hold %g", s.Hold)
		}
		fmt.Fprintln(bw)
	}
	for _, p := range c.Paths() {
		fmt.Fprintf(bw, "path %s -> %s delay %g", quoteIfNeeded(c.SyncName(p.From)), quoteIfNeeded(c.SyncName(p.To)), p.Delay)
		if p.MinDelay != p.Delay {
			fmt.Fprintf(bw, " min %g", p.MinDelay)
		}
		if p.Label != "" {
			fmt.Fprintf(bw, " label %s", quoteIfNeeded(p.Label))
		}
		fmt.Fprintln(bw)
	}
	metaKeys := make([]string, 0, len(c.Meta))
	for k := range c.Meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	for _, k := range metaKeys {
		fmt.Fprintf(bw, "meta %s %s\n", quoteIfNeeded(k), quoteIfNeeded(c.Meta[k]))
	}
	return bw.Flush()
}

func fmtWriteSchedule(w io.Writer, sc *core.Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "schedule tc %g\n", sc.Tc)
	for p := range sc.S {
		fmt.Fprintf(bw, "phase %d start %g width %g\n", p+1, sc.S[p], sc.T[p])
	}
	return bw.Flush()
}

// TestWriteCircuitMatchesFmt: WriteCircuit renders every generated
// benchmark byte for byte as the fmt-based writer did.
func TestWriteCircuitMatchesFmt(t *testing.T) {
	bs := append(append(gen.Suite(), gen.XLarge()...), gen.Huge()...)
	for _, b := range bs {
		checkWriteMatchesFmt(t, b.Name, b.Circuit)
	}
}

// TestWriteCircuitMatchesFmtEdgeValues covers what the generators never
// produce: infinities, NaN, negative zero, extreme magnitudes, named
// phases, labels, meta and names that need quoting.
func TestWriteCircuitMatchesFmtEdgeValues(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e21, 1e20, 123456789, 1.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	c := core.NewCircuit(3)
	c.SetPhaseName(1, "pre charge")
	c.Meta = map[string]string{"Register File": "16,085", "x": ""}
	for i, v := range vals {
		c.AddSync(core.Synchronizer{Name: fmt.Sprintf(`n"%d\`, i), Phase: i % 3, Kind: core.ElementKind(i % 2), Setup: v, DQ: -v, Hold: v})
	}
	for i, v := range vals {
		c.AddPathFull(core.Path{From: i, To: (i + 1) % len(vals), Delay: v, MinDelay: vals[(i+3)%len(vals)], Label: strings.Repeat("#", i%2)})
	}
	checkWriteMatchesFmt(t, "edge values", c)

	sc := &core.Schedule{Tc: math.Inf(1), S: vals, T: vals}
	var got, want strings.Builder
	if err := WriteSchedule(&got, sc); err != nil {
		t.Fatal(err)
	}
	if err := fmtWriteSchedule(&want, sc); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("schedule:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func checkWriteMatchesFmt(t *testing.T, name string, c *core.Circuit) {
	t.Helper()
	var got, want strings.Builder
	if err := WriteCircuit(&got, c); err != nil {
		t.Fatal(err)
	}
	if err := fmtWriteCircuit(&want, c); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d is %q, fmt wrote %q", name, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, fmt wrote %d", name, len(g), len(w))
	}
}

// TestAppendGMatchesFmt: appendG formats random float64 bit patterns —
// NaNs, infinities and subnormals included — exactly as %g does.
func TestAppendGMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for i := 0; i < 200000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			v = float64(rng.Intn(1<<20)) / float64(int(1)<<rng.Intn(30))
		}
		b = appendG(b[:0], v)
		if want := fmt.Sprintf("%g", v); string(b) != want {
			t.Fatalf("appendG(%#x) = %q, %%g gives %q", math.Float64bits(v), b, want)
		}
	}
}
