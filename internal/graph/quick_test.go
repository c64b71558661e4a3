package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomGraph(seed int64, maxN int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxN)
	g := New(n)
	for e := rng.Intn(3 * n); e > 0; e-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(rng.Intn(21)-10))
	}
	return g
}

// TestQuickSCCIsPartition: every node belongs to exactly one component
// and component membership matches mutual reachability.
func TestQuickSCCIsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 12)
		comps, comp := g.SCC()
		seen := make([]int, g.N())
		for ci, c := range comps {
			for _, v := range c {
				seen[v]++
				if comp[v] != ci {
					return false
				}
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		want := naiveSCC(g)
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if (comp[i] == comp[j]) != (want[i] == want[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTopoOrderRespectsEdges: when TopoSort succeeds, every edge
// goes forward; when it fails, the graph genuinely has a cycle (some
// SCC has size > 1 or a self-loop exists).
func TestQuickTopoOrderRespectsEdges(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 12)
		order, ok := g.TopoSort()
		if ok {
			pos := make([]int, g.N())
			for i, v := range order {
				pos[v] = i
			}
			for _, e := range g.Edges() {
				if pos[e.From] >= pos[e.To] {
					return false
				}
			}
			return true
		}
		// Must contain a cycle.
		comps, _ := g.SCC()
		for _, c := range comps {
			if len(c) > 1 {
				return true
			}
		}
		for _, e := range g.Edges() {
			if e.From == e.To {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// longestPathFixpoint is the Bellman–Ford fixpoint property: with no
// positive cycle, dist[v] >= dist[u] + w for every edge u->v with finite
// dist[u] (otherwise the edge could still relax); with one, the
// reported witness is a positive cycle in edge order.
func longestPathFixpoint(seed int64) bool {
	g := randomGraph(seed, 10)
	res := g.LongestPathsFrom(0)
	if res.PositiveCycle != nil {
		// Weigh each step by its heaviest parallel edge: the witness's
		// own edges are among them, so the sum bounds its weight.
		var sum float64
		nodes := res.PositiveCycle
		for i := range nodes {
			u := nodes[i]
			v := nodes[(i+1)%len(nodes)]
			best := math.Inf(-1)
			for _, e := range g.Out(u) {
				if e.To == v && e.Weight > best {
					best = e.Weight
				}
			}
			if math.IsInf(best, -1) {
				return false
			}
			sum += best
		}
		return sum > -1e-9
	}
	for _, e := range g.Edges() {
		if math.IsInf(res.Dist[e.From], -1) {
			continue
		}
		if res.Dist[e.To] < res.Dist[e.From]+e.Weight-1e-6 {
			return false
		}
	}
	return true
}

func TestQuickLongestPathFixpoint(t *testing.T) {
	if err := quick.Check(longestPathFixpoint, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLongestPathFixpointSeeds pins seeds whose random multigraph
// carries edges in both directions around the witness cycle, where a
// witness reported in reverse order was misread.
func TestLongestPathFixpointSeeds(t *testing.T) {
	for _, seed := range []int64{-199114, -198270, -191451} {
		if !longestPathFixpoint(seed) {
			t.Errorf("seed %d: fixpoint property fails", seed)
		}
	}
}

// TestQuickSimpleCyclesAreCycles: every enumerated cycle is simple,
// closed and correctly weighted.
func TestQuickSimpleCyclesAreCycles(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 7)
		for _, c := range g.SimpleCycles(200) {
			seen := map[int]bool{}
			for _, v := range c.Nodes {
				if seen[v] {
					return false // not simple
				}
				seen[v] = true
			}
			var sum float64
			for i, e := range c.Edges {
				next := c.Edges[(i+1)%len(c.Edges)]
				if e.To != next.From {
					return false // not closed
				}
				sum += e.Weight
			}
			if math.Abs(sum-c.Weight) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
