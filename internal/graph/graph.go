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
	"sort"
)

// Edge is a weighted directed edge from From to To.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a directed multigraph over nodes 0..N-1.
// The zero value is an empty graph with no nodes; use New or AddNode to
// grow it.
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

// AddNode appends a new node and returns its index.
func (g *Graph) AddNode() int {
	g.out = append(g.out, nil)
	g.n++
	return g.n - 1
}

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

// Edges returns all edges in insertion order grouped by source node.
func (g *Graph) Edges() []Edge {
	var all []Edge
	for _, es := range g.out {
		all = append(all, es...)
	}
	return all
}

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// SCC computes the strongly connected components using Tarjan's
// algorithm (iterative, so deep graphs do not overflow the stack).
// Components are returned in reverse topological order (a component
// appears before any component it can reach... specifically Tarjan
// emits components in reverse topological order of the condensation).
// comp maps each node to its component index in the returned slice.
func (g *Graph) SCC() (components [][]int, comp []int) {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	comp = make([]int, g.n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int // next out-edge index to consider
	}
	var frames []frame

	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.out[v]) {
				w := g.out[v][f.ei].To
				f.ei++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var c []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(components)
					c = append(c, w)
					if w == v {
						break
					}
				}
				sort.Ints(c)
				components = append(components, c)
			}
		}
	}
	return components, comp
}

// Condense computes the SCC partition together with the condensation
// DAG: dag[c] lists the distinct successor components of component c
// (no self-edges, no duplicates, ascending). Components keep SCC's
// reverse topological order, so every entry of dag[c] is < c.
func (g *Graph) Condense() (components [][]int, comp []int, dag [][]int) {
	components, comp = g.SCC()
	dag = make([][]int, len(components))
	seen := make([]int, len(components))
	for i := range seen {
		seen[i] = -1
	}
	for c := len(components) - 1; c >= 0; c-- {
		for _, v := range components[c] {
			for _, e := range g.out[v] {
				d := comp[e.To]
				if d != c && seen[d] != c {
					seen[d] = c
					dag[c] = append(dag[c], d)
				}
			}
		}
		sort.Ints(dag[c])
	}
	return components, comp, dag
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

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	t := New(g.n)
	for _, es := range g.out {
		for _, e := range es {
			t.AddEdge(e.To, e.From, e.Weight)
		}
	}
	return t
}

// Reachable returns the set of nodes reachable from src (including src).
func (g *Graph) Reachable(src int) []bool {
	g.check(src)
	seen := make([]bool, g.n)
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[u] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
