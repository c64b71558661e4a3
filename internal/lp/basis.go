package lp

import (
	"math"

	"mintc/internal/faultinject"
)

// The eta file holds one product-form update per pivot: after a pivot
// at basis position pos with transformed entering column w, the new
// basis inverse is E^-1 B^-1 where applying E^-1 to a position-indexed
// vector x is
//
//	x[pos] /= diag
//	x[idx[k]] -= vals[k] * x[pos]
//
// and applying its transpose (for BTRAN) is the reverse. Etas are
// stored structure-of-arrays: per-eta scalars in etaPos/etaDiag and
// the off-diagonal entries of all etas concatenated in etaIdx/etaVals,
// delimited by the etaStart prefix offsets (eta i owns
// etaIdx[etaStart[i]:etaStart[i+1]]). One flat layout instead of a
// slice of per-eta structs keeps FTRAN/BTRAN walking contiguous
// memory and lets the whole file recycle through the solve arena
// without per-pivot allocations.

// frame is one explicit-stack entry of the symbolic reach DFS: a row
// plus a cursor into its L column.
type frame struct {
	row int32
	e   int32
}

// basisLU is an invertible representation of the current basis matrix
// B: an LU factorization of the basis at the last refactorization
// point (Gilbert–Peierls left-looking sparse LU with partial pivoting)
// plus a file of eta updates, one per pivot since. FTRAN/BTRAN apply
// the factorization and the eta file without ever forming B^-1.
//
// Index spaces: L and its row indices live in original row space; U is
// indexed by elimination step. p maps step -> pivot row, pinv its
// inverse, q maps step -> basis position. Vectors entering ftran are
// row-indexed; vectors leaving ftran (and entering btran) are basis-
// position-indexed, matching how the simplex uses them.
type basisLU struct {
	m int

	// L: unit lower triangular, stored by column (elimination step);
	// row indices are original rows, diagonal implicit.
	lp []int32
	li []int32
	lx []float64

	// U: upper triangular, stored by column (elimination step); row
	// indices are earlier elimination steps, diagonal separate.
	up []int32
	ui []int32
	ux []float64
	ud []float64

	p    []int32 // step -> pivot row
	pinv []int32 // row -> step
	q    []int32 // step -> basis position

	// Eta file, SoA (see package comment above).
	etaPos   []int32
	etaDiag  []float64
	etaStart []int32 // len nEtas()+1 once any eta exists; prefix offsets
	etaIdx   []int32
	etaVals  []float64
	etaNnz   int
	luNnz    int

	// scratch for factorization and solves
	x       []float64
	visited []int32
	vstamp  int32
	topo    []int32
	fstack  []frame // reach DFS stack
	order   []int32 // factorize: column elimination order
	bcnt    []int32 // factorize: counting-sort buckets
	colIdx  []int32 // factorize: gathered basis column
	colVal  []float64
	zk      []float64

	refactors int64 // refactorization count since construction
}

// nEtas returns the number of eta updates in the file.
func (b *basisLU) nEtas() int { return len(b.etaPos) }

// clearEtas empties the eta file, keeping capacity.
func (b *basisLU) clearEtas() {
	b.etaPos = b.etaPos[:0]
	b.etaDiag = b.etaDiag[:0]
	b.etaStart = b.etaStart[:0]
	b.etaIdx = b.etaIdx[:0]
	b.etaVals = b.etaVals[:0]
	b.etaNnz = 0
}

// factorize rebuilds the LU decomposition of the basis described by
// basis (position -> canonical column id) and clears the eta file.
// Columns are eliminated in ascending-nnz order, a cheap fill-reducing
// heuristic that works well on SMO programs where most basis columns
// are slacks or near-unit structural columns.
func (b *basisLU) factorize(st *store, basis []int32) error {
	if err := faultinject.Fire("lp.factor"); err != nil {
		return err
	}
	m := b.m
	b.lp = append(b.lp[:0], 0)
	b.li = b.li[:0]
	b.lx = b.lx[:0]
	b.up = append(b.up[:0], 0)
	b.ui = b.ui[:0]
	b.ux = b.ux[:0]
	b.ud = b.ud[:0]
	b.clearEtas()
	for i := range b.pinv {
		b.pinv[i] = -1
	}
	// Recycled arenas keep the visited stamps monotone across solves;
	// rewind before the int32 stamp space could wrap.
	if b.vstamp > math.MaxInt32-int32(m)-1 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.vstamp = 0
	}

	// Column elimination order: nnz ascending, stable on position
	// (counting sort; nnz is tiny for SMO columns).
	maxNnz := 1
	for _, id := range basis {
		if c := st.colNnz(id); c > maxNnz {
			maxNnz = c
		}
	}
	if cap(b.bcnt) < maxNnz+1 {
		b.bcnt = make([]int32, maxNnz+1)
	}
	bcnt := b.bcnt[:maxNnz+1]
	for i := range bcnt {
		bcnt[i] = 0
	}
	for i := 0; i < m; i++ {
		bcnt[st.colNnz(basis[i])]++
	}
	var off int32
	for c := range bcnt {
		n := bcnt[c]
		bcnt[c] = off
		off += n
	}
	if cap(b.order) < m {
		b.order = make([]int32, m)
	}
	order := b.order[:m]
	for i := 0; i < m; i++ {
		c := st.colNnz(basis[i])
		order[bcnt[c]] = int32(i)
		bcnt[c]++
	}

	for step, jpos := range order {
		b.colIdx, b.colVal = st.appendCol(basis[jpos], b.colIdx[:0], b.colVal[:0])
		colIdx, colVal := b.colIdx, b.colVal

		// Symbolic: reach of the column's rows through finished L
		// columns, in topological order.
		b.vstamp++
		b.topo = b.topo[:0]
		for _, r := range colIdx {
			b.reach(r)
		}

		// Numeric: scatter and eliminate.
		for k, r := range colIdx {
			b.x[r] = colVal[k]
		}
		// topo is reverse post-order: dependencies come later, so walk
		// backwards to apply L columns in increasing step order.
		for t := len(b.topo) - 1; t >= 0; t-- {
			r := b.topo[t]
			k := b.pinv[r]
			if k < 0 {
				continue
			}
			xv := b.x[r]
			if xv == 0 {
				continue
			}
			for e := b.lp[k]; e < b.lp[k+1]; e++ {
				b.x[b.li[e]] -= b.lx[e] * xv
			}
		}

		// Partial pivot among rows not yet pivotal.
		piv := int32(-1)
		var pmax float64
		for _, r := range b.topo {
			if b.pinv[r] >= 0 {
				continue
			}
			if v := math.Abs(b.x[r]); v > pmax {
				pmax = v
				piv = r
			}
		}
		if piv < 0 || pmax < 1e-11 {
			for _, r := range b.topo {
				b.x[r] = 0
			}
			return ErrSingularBasis
		}

		// Emit U column (entries at already-pivotal rows) and L column
		// (entries below the pivot, scaled).
		pv := b.x[piv]
		for _, r := range b.topo {
			xv := b.x[r]
			b.x[r] = 0
			if xv == 0 || r == piv {
				continue
			}
			if k := b.pinv[r]; k >= 0 {
				b.ui = append(b.ui, k)
				b.ux = append(b.ux, xv)
			} else {
				b.li = append(b.li, r)
				b.lx = append(b.lx, xv/pv)
			}
		}
		b.ud = append(b.ud, pv)
		b.lp = append(b.lp, int32(len(b.li)))
		b.up = append(b.up, int32(len(b.ui)))
		k := int32(step)
		b.pinv[piv] = k
		b.p[k] = piv
		b.q[k] = jpos
	}
	b.luNnz = len(b.li) + len(b.ui) + m
	b.refactors++
	return nil
}

// reach runs an iterative DFS from row r through finished L columns,
// marking visited rows and appending them to topo in post-order (so
// topo reversed is a valid elimination order).
func (b *basisLU) reach(r int32) {
	if b.visited[r] == b.vstamp {
		return
	}
	// Each stack frame is a row with an explicit per-row cursor into
	// its L column, emulating recursion.
	stack := b.fstack[:0]
	b.visited[r] = b.vstamp
	stack = append(stack, frame{row: r})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		k := b.pinv[f.row]
		done := true
		if k >= 0 {
			lo, hi := b.lp[k], b.lp[k+1]
			for e := lo + f.e; e < hi; e++ {
				child := b.li[e]
				if b.visited[child] != b.vstamp {
					b.visited[child] = b.vstamp
					f.e = e - lo + 1
					stack = append(stack, frame{row: child})
					done = false
					break
				}
			}
		}
		if done {
			b.topo = append(b.topo, f.row)
			stack = stack[:len(stack)-1]
		}
	}
	b.fstack = stack[:0]
}

// ftran solves B w = v. v is dense and row-indexed; the result is
// dense and basis-position-indexed, written into out (len m). v is
// left zeroed for reuse as scratch.
func (b *basisLU) ftran(v, out []float64) {
	m := b.m
	// L solve in row space: for each step ascending, propagate the
	// pivot row's value down its L column.
	for k := 0; k < m; k++ {
		xv := v[b.p[k]]
		if xv == 0 {
			continue
		}
		for e := b.lp[k]; e < b.lp[k+1]; e++ {
			v[b.li[e]] -= b.lx[e] * xv
		}
	}
	// U solve backward; result lands at basis positions via q.
	for k := m - 1; k >= 0; k-- {
		r := b.p[k]
		zk := v[r] / b.ud[k]
		v[r] = 0
		b.zk[k] = zk
		if zk == 0 {
			continue
		}
		for e := b.up[k]; e < b.up[k+1]; e++ {
			v[b.p[b.ui[e]]] -= b.ux[e] * zk
		}
	}
	for k := 0; k < m; k++ {
		out[b.q[k]] = b.zk[k]
	}
	// Eta file, oldest first.
	for i := 0; i < len(b.etaPos); i++ {
		pos := b.etaPos[i]
		xr := out[pos] / b.etaDiag[i]
		out[pos] = xr
		if xr == 0 {
			continue
		}
		for j := b.etaStart[i]; j < b.etaStart[i+1]; j++ {
			out[b.etaIdx[j]] -= b.etaVals[j] * xr
		}
	}
}

// btran solves B^T y = c. c is dense and basis-position-indexed and is
// consumed as scratch; the result is dense and row-indexed, written
// into out (len m, fully overwritten).
func (b *basisLU) btran(c, out []float64) {
	m := b.m
	// Eta transposes, newest first.
	for i := len(b.etaPos) - 1; i >= 0; i-- {
		pos := b.etaPos[i]
		acc := c[pos]
		for j := b.etaStart[i]; j < b.etaStart[i+1]; j++ {
			acc -= b.etaVals[j] * c[b.etaIdx[j]]
		}
		c[pos] = acc / b.etaDiag[i]
	}
	// U^T solve forward over steps (entries reference earlier steps).
	for k := 0; k < m; k++ {
		acc := c[b.q[k]]
		for e := b.up[k]; e < b.up[k+1]; e++ {
			acc -= b.ux[e] * b.zk[b.ui[e]]
		}
		b.zk[k] = acc / b.ud[k]
	}
	// L^T solve backward: s_k = z_k - sum over L column k of
	// lx * s_{pinv(row)} where every referenced step is later.
	for k := m - 1; k >= 0; k-- {
		acc := b.zk[k]
		for e := b.lp[k]; e < b.lp[k+1]; e++ {
			acc -= b.lx[e] * b.zk[b.pinv[b.li[e]]]
		}
		b.zk[k] = acc
		out[b.p[k]] = acc
	}
	for i := range c {
		c[i] = 0
	}
}

// update appends a product-form eta for a pivot at basis position pos
// whose transformed entering column (B^-1 A_q, position-indexed) is w.
// w is not retained.
func (b *basisLU) update(pos int32, w []float64) {
	if len(b.etaStart) == 0 {
		b.etaStart = append(b.etaStart, 0)
	}
	start := len(b.etaIdx)
	for i, v := range w {
		if int32(i) == pos {
			continue
		}
		if math.Abs(v) > 1e-12 {
			b.etaIdx = append(b.etaIdx, int32(i))
			b.etaVals = append(b.etaVals, v)
		}
	}
	b.etaPos = append(b.etaPos, pos)
	b.etaDiag = append(b.etaDiag, w[pos])
	b.etaStart = append(b.etaStart, int32(len(b.etaIdx)))
	b.etaNnz += len(b.etaIdx) - start
}

// needRefactor reports whether the eta file has grown past the point
// where refactorizing is cheaper (and more accurate) than applying it.
func (b *basisLU) needRefactor() bool {
	if b.nEtas() >= 64 {
		return true
	}
	return b.etaNnz > 2*(b.luNnz+b.m)
}
