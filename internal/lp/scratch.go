package lp

// Solve scratch arena: every dense working vector, factorization
// buffer and assembly workspace a revised-simplex solve needs, owned
// as one unit and recycled across solves through a sync.Pool (see
// scratch_pool.go; the noscratch build tag swaps in a fresh arena per
// solve for differential testing).
//
// The bit-identity contract: a solve on a recycled arena must produce
// exactly the same Solution as a solve on a fresh one. Each buffer
// therefore falls into one of three classes, re-established on every
// acquisition (arena.bind / basisFor / revisedFor):
//
//   - fully overwritten before any read (xB, cB, y, y2, w, rhs, obj,
//     CSC arrays): reuse as-is;
//   - self-cleaning (v and c are left zeroed by ftran/btran; the LU's
//     scatter vector x is re-zeroed by factorize): reuse as-is, but
//     re-zeroed on bind anyway as cheap O(m) insurance;
//   - stateful (where maps, stamp workspaces, visited marks, pricer
//     candidates): explicitly reset to their freshly-made value.
//
// Escaping outputs (Solution.X/Dual/Slack/RHSRange, basis encodings,
// Farkas rays) are always freshly allocated; nothing handed to a
// caller aliases arena memory.

// rowEnt is one accumulated (row, col, coef) entry produced by
// assembly pass 1 (moved to package scope so the arena can pool the
// slice).
type rowEnt struct {
	row  int32
	col  int32
	coef float64
}

// arena bundles all scratch for one in-flight solve.
type arena struct {
	st  store
	lu  basisLU
	pr  pricer
	rev revised

	// assemble workspace
	acc    []float64
	stamp  []int
	ents   []rowEnt
	counts []int32
	next   []int32

	used   bool // the arena has served at least one earlier solve
	reused bool // this acquisition recycled a previously used arena
	grows  int  // buffers (re)grown during the current solve
}

// growF64 returns s resized to n, reallocating (and counting the
// growth) only when capacity is insufficient. Contents beyond a fresh
// allocation's zeros are unspecified; callers own the reset policy.
func growF64(a *arena, s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
		a.grows++
	}
	*s = (*s)[:n]
	return *s
}

func growI32(a *arena, s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
		a.grows++
	}
	*s = (*s)[:n]
	return *s
}

func growInts(a *arena, s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
		a.grows++
	}
	*s = (*s)[:n]
	return *s
}

// basisFor binds the arena's LU workspace to an m-row store and
// resets it to the state a fresh newBasisLU would have.
func (a *arena) basisFor(st *store) *basisLU {
	b := &a.lu
	m := st.m
	b.m = m
	b.p = growI32(a, &b.p, m)
	b.pinv = growI32(a, &b.pinv, m)
	b.q = growI32(a, &b.q, m)
	b.x = growF64(a, &b.x, m)
	b.visited = growI32(a, &b.visited, m)
	b.zk = growF64(a, &b.zk, m)
	for i := 0; i < m; i++ {
		b.x[i] = 0
		b.visited[i] = 0
	}
	b.vstamp = 0
	b.topo = b.topo[:0]
	b.fstack = b.fstack[:0]
	b.lp = b.lp[:0]
	b.li = b.li[:0]
	b.lx = b.lx[:0]
	b.up = b.up[:0]
	b.ui = b.ui[:0]
	b.ux = b.ux[:0]
	b.ud = b.ud[:0]
	b.clearEtas()
	b.luNnz = 0
	b.refactors = 0
	return b
}

// pricerFor binds the arena's pricer to the store with an empty
// candidate list.
func (a *arena) pricerFor(st *store) *pricer {
	pr := &a.pr
	pr.st = st
	pr.cand = pr.cand[:0]
	pr.scores = pr.scores[:0]
	return pr
}

// revisedFor binds the arena's solver state to an assembled store,
// re-establishing every fresh-allocation invariant newRevised would
// provide.
func (a *arena) revisedFor(st *store) *revised {
	m := st.m
	r := &a.rev
	r.st = st
	r.lu = a.basisFor(st)
	r.pr = a.pricerFor(st)
	r.basis = growI32(a, &r.basis, m)
	r.where = growI32(a, &r.where, int(st.numCols()))
	for i := range r.where {
		r.where[i] = -1
	}
	r.xB = growF64(a, &r.xB, m)
	r.cB = growF64(a, &r.cB, m)
	r.y = growF64(a, &r.y, m)
	r.y2 = growF64(a, &r.y2, m)
	r.v = growF64(a, &r.v, m)
	r.c = growF64(a, &r.c, m)
	r.w = growF64(a, &r.w, m)
	for i := 0; i < m; i++ {
		r.v[i] = 0
		r.c[i] = 0
	}
	r.pivots = 0
	r.stats = SolveStats{}
	return r
}
