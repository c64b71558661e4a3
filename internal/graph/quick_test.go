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
		comps, comp := scc(g)
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

// longestPathFixpoint checks SimpleCycles for completeness against a
// longest-path relaxation from node 0: the relaxation settles within
// N rounds exactly when no cycle reachable from node 0 gains weight,
// so SimpleCycles must return a positive cycle through a reachable
// node if and only if the relaxation fails to settle. When it
// settles, no edge out of a reached node can still raise its head.
func longestPathFixpoint(seed int64) bool {
	g := randomGraph(seed, 10)
	n := g.N()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(-1)
	}
	dist[0] = 0
	settled := false
	for round := 0; round <= n && !settled; round++ {
		settled = true
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], -1) {
				continue
			}
			for _, e := range g.Out(u) {
				if d := dist[u] + e.Weight; d > dist[e.To] {
					dist[e.To] = d
					settled = false
				}
			}
		}
	}
	positive := false
	for _, c := range g.SimpleCycles(0) {
		if c.Weight > 0 && !math.IsInf(dist[c.Nodes[0]], -1) {
			positive = true
		}
	}
	if positive == settled {
		return false
	}
	if !settled {
		return true
	}
	for u := 0; u < n; u++ {
		if math.IsInf(dist[u], -1) {
			continue
		}
		for _, e := range g.Out(u) {
			if dist[e.To] < dist[u]+e.Weight {
				return false
			}
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
// carries edges in both directions around a positive cycle, where a
// cycle read in reverse order would weigh the wrong parallel edges.
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
