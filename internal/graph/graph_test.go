package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	g.AddEdge(0, 5, 1)
}

func TestSCCBasic(t *testing.T) {
	// Two SCCs: {0,1,2} and {3}, plus isolated {4}.
	g := New(5)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(2, 3, 0)
	comps, comp := scc(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("nodes 0,1,2 not in same component: %v", comp)
	}
	if comp[3] == comp[0] || comp[4] == comp[0] || comp[3] == comp[4] {
		t.Errorf("components wrong: %v", comp)
	}
	// Reverse topological order: {3} must be emitted before {0,1,2}.
	if comp[3] >= comp[0] {
		t.Errorf("SCC order not reverse-topological: comp[3]=%d comp[0]=%d", comp[3], comp[0])
	}
}

func TestSCCAllSingletons(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	comps, _ := scc(g)
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
}

// reachable returns the set of nodes reachable from src (including
// src), by depth-first search.
func reachable(g *Graph, src int) []bool {
	seen := make([]bool, g.N())
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(u) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// allEdges lists every edge, grouped by source node in insertion order.
func allEdges(g *Graph) []Edge {
	var all []Edge
	for u := 0; u < g.N(); u++ {
		all = append(all, g.Out(u)...)
	}
	return all
}

// naiveSCC checks mutual reachability directly.
func naiveSCC(g *Graph) []int {
	n := g.N()
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = reachable(g, i)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		comp[i] = next
		for j := i + 1; j < n; j++ {
			if comp[j] == -1 && reach[i][j] && reach[j][i] {
				comp[j] = next
			}
		}
		next++
	}
	return comp
}

func TestSCCRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(12)
		g := New(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0)
		}
		_, comp := scc(g)
		want := naiveSCC(g)
		// Compare as partitions: same component iff same naive component.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (comp[i] == comp[j]) != (want[i] == want[j]) {
					t.Fatalf("iter %d: partition mismatch at (%d,%d)\ncomp=%v\nwant=%v", iter, i, j, comp, want)
				}
			}
		}
	}
}

func TestSimpleCyclesTriangleAndSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(1, 1, 5)
	cycles := g.SimpleCycles(0)
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles, want 2: %+v", len(cycles), cycles)
	}
	if len(cycles[0].Nodes) != 1 || cycles[0].Weight != 5 {
		t.Errorf("self-loop cycle wrong: %+v", cycles[0])
	}
	if len(cycles[1].Nodes) != 3 || cycles[1].Weight != 3 {
		t.Errorf("triangle cycle wrong: %+v", cycles[1])
	}
}

func TestSimpleCyclesParallelEdges(t *testing.T) {
	// Two parallel edges 0->1 and one edge back: two distinct cycles.
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 1)
	cycles := g.SimpleCycles(0)
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles, want 2 (parallel edges)", len(cycles))
	}
	weights := []float64{cycles[0].Weight, cycles[1].Weight}
	sort.Float64s(weights)
	if weights[0] != 2 || weights[1] != 3 {
		t.Errorf("cycle weights = %v, want [2 3]", weights)
	}
}

func TestSimpleCyclesK4Count(t *testing.T) {
	// Complete digraph on 4 nodes has 20 simple cycles:
	// C(4,2)=6 of length 2, 4*2=8 of length 3, 3*2=6 of length 4.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
	}
	cycles := g.SimpleCycles(0)
	if len(cycles) != 20 {
		t.Fatalf("K4 cycles = %d, want 20", len(cycles))
	}
}

func TestSimpleCyclesMaxCap(t *testing.T) {
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
	}
	cycles := g.SimpleCycles(5)
	if len(cycles) != 5 {
		t.Fatalf("capped cycles = %d, want 5", len(cycles))
	}
}

func TestSimpleCyclesAcyclic(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if cycles := g.SimpleCycles(0); len(cycles) != 0 {
		t.Fatalf("acyclic graph produced cycles: %+v", cycles)
	}
}

func TestSimpleCyclesWeightsMatchEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(5)
		g := New(n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(rng.Intn(10)))
		}
		for _, c := range g.SimpleCycles(0) {
			var sum float64
			for _, e := range c.Edges {
				sum += e.Weight
			}
			if math.Abs(sum-c.Weight) > 1e-12 {
				t.Fatalf("cycle weight %g != edge sum %g", c.Weight, sum)
			}
			// Edges must be connected and closed.
			for i, e := range c.Edges {
				next := c.Edges[(i+1)%len(c.Edges)]
				if e.To != next.From {
					t.Fatalf("cycle edges not connected: %+v", c)
				}
			}
		}
	}
}

func BenchmarkSCC(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := New(1000)
	for e := 0; e < 4000; e++ {
		g.AddEdge(rng.Intn(1000), rng.Intn(1000), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc(g)
	}
}
