// Package graph provides the directed-graph algorithms used by the
// timing engines: strongly connected components, topological sorting,
// Bellman–Ford longest paths with positive-cycle detection, and simple
// cycle enumeration.
//
// Graphs are represented compactly: nodes are integers 0..N-1 and edges
// carry float64 weights. The package is deliberately free of timing
// semantics so it can be tested against naive oracles in isolation.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is a weighted directed edge from From to To.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a directed multigraph over nodes 0..N-1.
// The zero value is an empty graph with no nodes; use New.
type Graph struct {
	n   int
	out [][]Edge
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, out: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge from u to v with weight w.
// Parallel edges and self-loops are allowed.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	g.out[u] = append(g.out[u], Edge{From: u, To: v, Weight: w})
}

// Out returns the outgoing edges of u. The returned slice must not be
// modified.
func (g *Graph) Out(u int) []Edge {
	g.check(u)
	return g.out[u]
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// SCC computes the strongly connected components with SCCCSR over the
// graph's out-arcs in insertion order. comp maps each node to its
// component index in the returned slice; each component's nodes are
// sorted ascending.
func (g *Graph) SCC() (components [][]int, comp []int) {
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

// SCCCSR computes the strongly connected components of the graph whose
// out-arcs are given in CSR form — node v's successors are
// adj[start[v]:start[v+1]] — with Tarjan's algorithm, iteratively so
// deep graphs do not overflow the stack. Roots are tried in node order
// and each node's arcs in CSR order, so the numbering is a pure
// function of the CSR. Components come out in Tarjan's emission order,
// the reverse topological order of the condensation (a component
// appears before every component that can reach it). comp maps each
// node to its component; component c's nodes are
// members[compStart[c]:compStart[c+1]], sorted ascending. Every
// buffer is sized up front, so the call allocates a fixed number of
// objects whatever the graph.
func SCCCSR(start, adj []int32) (comp, members, compStart []int32) {
	n := len(start) - 1
	index := make([]int32, n) // DFS discovery order, -1 until visited
	low := make([]int32, n)
	comp = make([]int32, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	members = make([]int32, 0, n)
	compStart = make([]int32, 1, n+1)
	// A visited node is on Tarjan's stack exactly until its component
	// is emitted, i.e. while comp is still -1.
	stack := make([]int32, 0, n)
	type frame struct {
		v    int32
		next int32 // CSR position of the next out-arc to consider
	}
	frames := make([]frame, 0, n)
	var counter int32
	visit := func(v int32) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		frames = append(frames, frame{v: v, next: start[v]})
	}
	for root := int32(0); int(root) < n; root++ {
		if index[root] >= 0 {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			descended := false
			for f.next < start[v+1] {
				w := adj[f.next]
				f.next++
				if index[w] < 0 {
					visit(w)
					descended = true
					break
				}
				if comp[w] < 0 && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			// v is finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				ci := int32(len(compStart) - 1)
				lo := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ci
					members = append(members, w)
					if w == v {
						break
					}
				}
				slices.Sort(members[lo:])
				compStart = append(compStart, int32(len(members)))
			}
		}
	}
	return comp, members, compStart
}

// TopoSort returns a topological order of the nodes, or ok=false if the
// graph contains a cycle.
func (g *Graph) TopoSort() (order []int, ok bool) {
	indeg := make([]int, g.n)
	for _, es := range g.out {
		for _, e := range es {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, g.n)
	for i := 0; i < g.n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order = make([]int, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.out[u] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return order, len(order) == g.n
}

// HasCycle reports whether the graph contains a directed cycle
// (including self-loops).
func (g *Graph) HasCycle() bool {
	_, ok := g.TopoSort()
	return !ok
}

// NegInf is the "no path" value returned by longest-path routines.
var NegInf = math.Inf(-1)

// LongestPathsResult holds the output of LongestPathsFrom.
type LongestPathsResult struct {
	// Dist[v] is the longest-path distance from the source to v, or
	// NegInf if v is unreachable.
	Dist []float64
	// Pred[v] is the predecessor edge on a longest path to v, or a
	// zero Edge with From==-1 when v is the source or unreachable.
	Pred []Edge
	// PositiveCycle is non-nil if a reachable cycle of positive total
	// weight exists; it contains the nodes of one such cycle in edge
	// order: an edge runs from each node to the next, and from the last
	// back to the first.
	PositiveCycle []int
}

// LongestPathsFrom computes single-source longest paths using
// Bellman–Ford. Because longest paths are only well defined when no
// reachable cycle has positive weight, the result carries a
// PositiveCycle witness when one exists; distances are then not
// meaningful for nodes influenced by the cycle.
func (g *Graph) LongestPathsFrom(src int) LongestPathsResult {
	g.check(src)
	dist := make([]float64, g.n)
	pred := make([]Edge, g.n)
	for i := range dist {
		dist[i] = NegInf
		pred[i] = Edge{From: -1}
	}
	dist[src] = 0

	relax := func() (changedNode int) {
		changedNode = -1
		for u := 0; u < g.n; u++ {
			if dist[u] == NegInf {
				continue
			}
			for _, e := range g.out[u] {
				if d := dist[u] + e.Weight; d > dist[e.To]+relaxEps {
					dist[e.To] = d
					pred[e.To] = e
					changedNode = e.To
				}
			}
		}
		return changedNode
	}

	for i := 0; i < g.n-1; i++ {
		if relax() == -1 {
			break
		}
	}
	res := LongestPathsResult{Dist: dist, Pred: pred}
	if v := relax(); v != -1 {
		res.PositiveCycle = g.traceCycle(pred, v)
	}
	return res
}

// relaxEps guards Bellman–Ford against infinite refinement caused by
// floating-point round-off on zero-weight cycles.
const relaxEps = 1e-9

// traceCycle walks predecessor edges from a node known to be affected
// by a positive cycle and extracts the cycle's node sequence in edge
// order (the predecessor walk meets the nodes in reverse).
func (g *Graph) traceCycle(pred []Edge, v int) []int {
	// After n relaxations v is on or reachable from the cycle; walk
	// back n steps to land on the cycle itself.
	for i := 0; i < g.n; i++ {
		if pred[v].From == -1 {
			break
		}
		v = pred[v].From
	}
	seen := make(map[int]int)
	var path []int
	for {
		if at, ok := seen[v]; ok {
			cyc := path[at:]
			for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
				cyc[i], cyc[j] = cyc[j], cyc[i]
			}
			return cyc
		}
		seen[v] = len(path)
		path = append(path, v)
		if pred[v].From == -1 {
			// Degenerate (shouldn't happen): no cycle found.
			return path
		}
		v = pred[v].From
	}
}

// LongestPathDAG computes single-source longest paths on an acyclic
// graph in O(V+E) using a topological order. It panics if the graph has
// a cycle; use LongestPathsFrom for general graphs.
func (g *Graph) LongestPathDAG(src int) []float64 {
	order, ok := g.TopoSort()
	if !ok {
		panic("graph: LongestPathDAG called on cyclic graph")
	}
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = NegInf
	}
	dist[src] = 0
	for _, u := range order {
		if dist[u] == NegInf {
			continue
		}
		for _, e := range g.out[u] {
			if d := dist[u] + e.Weight; d > dist[e.To] {
				dist[e.To] = d
			}
		}
	}
	return dist
}
