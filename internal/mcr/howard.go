package mcr

import (
	"context"
	"math"
)

// howardMaxIters caps one policy-iteration run. Seeded from a probe's
// predecessor graph the iteration is stable after 2–10 passes on every
// benchmark circuit; the cap only bounds the rare slow case, in
// which the best cycle found so far is still a sound bound and the
// Lawler jumps finish the search.
const howardMaxIters = 32

// howardScratch is the policy-iteration state, allocated on the first
// run and reused across runs on the same builder.
type howardScratch struct {
	pol   []int32   // policy: the one in-edge each node keeps, or -1
	cls   []int32   // node's policy-cycle class, -1 for ratio −∞
	pot   []float64 // node potential relative to its cycle's head
	candC []int32   // improvement pass: best candidate class so far
	candX []float64 // improvement pass: best candidate potential so far
	stack []int32   // evaluation walk
	ratio []float64 // per class: the policy cycle's ratio
	head  []int32   // per class: one node on the policy cycle
	best  []int32   // edge indices of the best cycle seen, pred-walk order
}

// howard runs Howard's policy iteration for the maximum cycle ratio
// (Cochet-Terrasson et al.), seeded from the predecessor graph the last
// probe left in b.pred. Each node keeps one in-edge; every node on or
// draining into a policy cycle takes that cycle's ratio and a potential
// along the policy tree, and the improvement pass switches a node's
// in-edge to a source with a larger ratio first and a larger potential
// second. It stops when the policy is stable or after howardMaxIters
// passes, and returns the largest ratio of any policy cycle it saw
// (−∞ when none crosses a cycle boundary) with that cycle's edge
// indices in pred-walk order, like bestWitness.
//
// Every policy cycle is a real cycle of the constraint graph, so the
// ratio is a sound lower bound on the optimal cycle time however early
// the iteration stops; feasibility is still decided by the probes
// alone. Cycles without a Tc coefficient carry ratio −∞ here:
// structural infeasibility is the probe's witness to report.
//
// stable reports that the iteration ended on a stable policy. Its
// potentials (b.how.pot) then pass the probe's own relaxation test
// (x[v] >= x[u] + a + b·Tc − eps) at the returned ratio on every edge
// but, up to rounding, a policy cycle's closing one. The constraint
// graph is strongly connected (every node reaches and is reached from
// the origin), so that ratio is then the maximum one.
// The returned slice aliases builder scratch until the next run.
func (b *builder) howard(ctx context.Context) (ratio float64, cyc []int32, stable bool, err error) {
	h := b.ensureHoward()
	copy(h.pol, b.pred)
	ratio = math.Inf(-1)
	for iter := 0; iter < howardMaxIters && !stable; iter++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, false, err
		}
		b.howardEval()
		top := int32(-1)
		for c, r := range h.ratio {
			if r > ratio {
				ratio, top = r, int32(c)
			}
		}
		if top >= 0 {
			h.best = h.best[:0]
			for v := h.head[top]; ; {
				ei := h.pol[v]
				h.best = append(h.best, ei)
				if v = b.edges[ei].from; v == h.head[top] {
					break
				}
			}
		}
		stable = !b.howardImprove()
	}
	return ratio, h.best, stable && !math.IsInf(ratio, -1), nil
}

func (b *builder) ensureHoward() *howardScratch {
	b.ensureScratch()
	h := &b.how
	if h.pol == nil {
		n := b.n
		h.pol = make([]int32, n)
		h.cls = make([]int32, n)
		h.pot = make([]float64, n)
		h.candC = make([]int32, n)
		h.candX = make([]float64, n)
		h.stack = make([]int32, 0, n)
	}
	h.best = h.best[:0]
	return h
}

// howardEval computes every node's class and potential under the
// current policy. The policy graph is functional (one in-edge per
// node), so each pred walk ends at a root (-1), at a node an earlier
// walk resolved, or on itself — a new policy cycle. Potentials follow
// x[v] = x[u] + a + b·λ along each policy edge u→v, with the cycle's
// head at 0; nodes of ratio −∞ carry potential 0 and are never compared
// by potential.
func (b *builder) howardEval() {
	h := &b.how
	ep := b.bumpEpoch()
	gen, pos := b.wgen, b.walkPos()
	const onWalk = -2
	h.ratio, h.head = h.ratio[:0], h.head[:0]
	for s := 0; s < b.n; s++ {
		if gen[s] == ep {
			continue
		}
		stack := h.stack[:0]
		v := int32(s)
		for v >= 0 && gen[v] != ep {
			gen[v] = ep
			h.cls[v] = onWalk
			pos[v] = int32(len(stack))
			stack = append(stack, v)
			if ei := h.pol[v]; ei < 0 {
				v = -1
			} else {
				v = b.edges[ei].from
			}
		}
		cls := int32(-1)
		switch {
		case v < 0:
			// Walk reached a root: ratio −∞.
		case h.cls[v] != onWalk:
			cls = h.cls[v]
		default:
			// A new policy cycle: stack[pos[v]:] in pred-walk order.
			var sumA, sumB float64
			for _, w := range stack[pos[v]:] {
				e := &b.edges[h.pol[w]]
				sumA += e.a
				sumB += e.b
			}
			if sumB < -eps {
				cls = int32(len(h.ratio))
				h.ratio = append(h.ratio, sumA/-sumB)
				h.head = append(h.head, v)
				h.cls[v] = cls
				h.pot[v] = 0
			}
		}
		if cls < 0 {
			for _, w := range stack {
				h.cls[w] = -1
				h.pot[w] = 0
			}
		} else {
			// Each walk node's pred source sits one slot deeper in the
			// stack (or is v), so descending order meets sources first.
			lam := h.ratio[cls]
			for i := len(stack) - 1; i >= 0; i-- {
				w := stack[i]
				if w == v {
					continue
				}
				e := &b.edges[h.pol[w]]
				h.cls[w] = cls
				h.pot[w] = h.pot[e.from] + e.a + e.b*lam
			}
		}
		h.stack = stack
	}
}

// howardImprove is one policy-improvement pass over the edge array:
// node v moves its in-edge to u→v when u's ratio is larger, or equal
// with a potential through the edge larger by more than eps — the
// probe's own relaxation test, so a stable policy's potentials relax
// nothing at its ratio. Candidates are judged against the evaluated
// state, not against earlier switches in the same pass. Reports
// whether any in-edge moved.
func (b *builder) howardImprove() bool {
	h := &b.how
	copy(h.candC, h.cls)
	copy(h.candX, h.pot)
	changed := false
	for ei := range b.edges {
		e := &b.edges[ei]
		cu := h.cls[e.from]
		if cu < 0 {
			continue
		}
		lu := h.ratio[cu]
		x := h.pot[e.from] + e.a + e.b*lu
		cv := h.candC[e.to]
		better := cv < 0 || lu > h.ratio[cv]+eps
		if !better && lu >= h.ratio[cv]-eps {
			better = x > h.candX[e.to]+eps
		}
		if better {
			if h.pol[e.to] != int32(ei) {
				h.pol[e.to] = int32(ei)
				changed = true
			}
			h.candC[e.to] = cu
			h.candX[e.to] = x
		}
	}
	return changed
}
