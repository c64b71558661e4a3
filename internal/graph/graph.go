// Package graph provides the directed-graph algorithms used by the
// timing engines: SCC (Tarjan, CSR) and simple-cycle enumeration.
//
// Graphs are represented compactly: nodes are integers 0..N-1 and edges
// carry float64 weights. The package is deliberately free of timing
// semantics so it can be tested against naive oracles in isolation.
package graph

import (
	"fmt"
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
