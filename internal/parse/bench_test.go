package parse

import (
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// render returns c's .smo text.
func render(tb testing.TB, c *core.Circuit) string {
	tb.Helper()
	var sb strings.Builder
	if err := WriteCircuit(&sb, c); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// BenchmarkCircuit parses rand-huge-10k and gen.XXL's 100k-latch
// two-phase ring (built alone, without its random twin).
func BenchmarkCircuit(b *testing.B) {
	ring, err := gen.Ring(2, 100000, 1, 2, func(int) float64 { return 30 })
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		c    *core.Circuit
	}{{"rand-huge-10k", gen.Huge()[1].Circuit}, {"ring-2x100k", ring}} {
		src := render(b, bc.c)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CircuitString(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parseAllocsConst bounds the allocations parsing rand-huge-10k takes
// beyond its synchronizers: the presized name map, synchronizer and
// path slices, the name arena, the fanin arrays and the circuit itself.
// Go 1.24 measures 49 in all, none of them per synchronizer.
const parseAllocsConst = 100

// TestCircuitParseAllocs gates the parser's allocations: at most two
// per synchronizer plus parseAllocsConst on rand-huge-10k.
func TestCircuitParseAllocs(t *testing.T) {
	c := gen.Huge()[1].Circuit
	src := render(t, c)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CircuitString(src); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(2*c.L() + parseAllocsConst)
	t.Logf("%.0f allocations for %d synchronizers and %d paths (limit %.0f)", allocs, c.L(), len(c.Paths()), limit)
	if allocs > limit {
		t.Errorf("parsing rand-huge-10k took %.0f allocations, over the limit of %.0f", allocs, limit)
	}
}
