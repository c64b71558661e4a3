package graph

import "testing"

// scc runs SCCCSR over g's out-arcs in insertion order and returns
// the components as node lists; comp maps each node to its component
// index in that list.
func scc(g *Graph) (components [][]int, comp []int) {
	start := make([]int32, g.n+1)
	for u, es := range g.out {
		start[u+1] = start[u] + int32(len(es))
	}
	adj := make([]int32, start[g.n])
	for u, es := range g.out {
		for i, e := range es {
			adj[int(start[u])+i] = int32(e.To)
		}
	}
	comp32, members, compStart := SCCCSR(start, adj)
	components = make([][]int, len(compStart)-1)
	for ci := range components {
		ms := members[compStart[ci]:compStart[ci+1]]
		c := make([]int, len(ms))
		for i, v := range ms {
			c[i] = int(v)
		}
		components[ci] = c
	}
	comp = make([]int, g.n)
	for v, ci := range comp32 {
		comp[v] = int(ci)
	}
	return components, comp
}

// checkPartition validates the SCC invariants every caller relies on:
// comp is a total map consistent with components, members are sorted,
// and the order is reverse topological (an edge u→v across components
// has comp[v] < comp[u]).
func checkPartition(t *testing.T, g *Graph, components [][]int, comp []int) {
	t.Helper()
	if len(comp) != g.N() {
		t.Fatalf("comp has %d entries for %d nodes", len(comp), g.N())
	}
	seen := make([]bool, g.N())
	for ci, members := range components {
		if len(members) == 0 {
			t.Fatalf("component %d is empty", ci)
		}
		for i, v := range members {
			if comp[v] != ci {
				t.Fatalf("node %d listed in component %d but comp maps it to %d", v, ci, comp[v])
			}
			if seen[v] {
				t.Fatalf("node %d appears in two components", v)
			}
			seen[v] = true
			if i > 0 && members[i-1] >= v {
				t.Fatalf("component %d members not sorted ascending: %v", ci, members)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d missing from every component", v)
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			if comp[e.To] > comp[u] {
				t.Fatalf("edge %d->%d violates reverse topological order: comp %d -> %d",
					u, e.To, comp[u], comp[e.To])
			}
		}
	}
}

func TestSCCSelfLoops(t *testing.T) {
	// Every node is its own component; self-loops do not merge anything
	// (but they do make the component cyclic, which callers detect via
	// the edge list, not the partition).
	g := New(5)
	g.AddEdge(0, 0, 1)
	g.AddEdge(2, 2, 1)
	g.AddEdge(2, 2, 1) // parallel self-loop
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	components, comp := scc(g)
	checkPartition(t, g, components, comp)
	if len(components) != 5 {
		t.Fatalf("want 5 singleton components, got %d: %v", len(components), components)
	}
}

func TestSCCSingleNodeComponents(t *testing.T) {
	// A pure DAG: all singletons, reverse topological order means the
	// sink comes first.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	components, comp := scc(g)
	checkPartition(t, g, components, comp)
	if len(components) != 4 {
		t.Fatalf("want 4 components, got %d", len(components))
	}
	if comp[3] != 0 || comp[0] != 3 {
		t.Fatalf("want sink first in reverse topological order, got comp=%v", comp)
	}
}

func TestSCCChainOfTwoCycles(t *testing.T) {
	// 2k nodes arranged as k two-node cycles chained in sequence:
	// {0,1} -> {2,3} -> ... Deep enough to overflow a recursive Tarjan;
	// the iterative one must return exactly k two-node components.
	const k = 50000
	g := New(2 * k)
	for i := 0; i < k; i++ {
		a, b := 2*i, 2*i+1
		g.AddEdge(a, b, 1)
		g.AddEdge(b, a, 1)
		if i+1 < k {
			g.AddEdge(b, 2*(i+1), 1)
		}
	}
	components, comp := scc(g)
	checkPartition(t, g, components, comp)
	if len(components) != k {
		t.Fatalf("want %d components, got %d", k, len(components))
	}
	for ci, members := range components {
		if len(members) != 2 {
			t.Fatalf("component %d has %d members, want 2", ci, len(members))
		}
	}
	// Reverse topological: the chain's last pair must be component 0.
	if comp[2*k-1] != 0 {
		t.Fatalf("chain tail in component %d, want 0", comp[2*k-1])
	}
}

func TestSCCOneGiantCycle(t *testing.T) {
	const n = 1000
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	components, comp := scc(g)
	checkPartition(t, g, components, comp)
	if len(components) != 1 || len(components[0]) != n {
		t.Fatalf("want one %d-node component, got %d components", n, len(components))
	}
}
