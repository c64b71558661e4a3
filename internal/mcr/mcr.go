// Package mcr solves the SMO optimal-cycle-time problem by a maximum
// cycle ratio computation instead of linear programming.
//
// The paper's conclusion observes that the constraint matrix of P2 has
// only 0/±1 entries and anticipates algorithms "potentially more
// efficient than the simplex algorithm". This package realizes that
// idea: after the change of variables
//
//	e_p = s_p + T_p   (end of phase p's active interval)
//	u_i = s_{p_i} + D_i  (departure of synchronizer i in cycle time)
//
// every constraint of P2 — clock constraints C1–C4 and latch
// constraints L1, L2R, L3 — becomes a difference constraint
// x_a − x_b ≥ A + B·Tc with B ∈ {0, −1}. For a fixed Tc the system is
// feasible iff the constraint graph has no positive-weight cycle
// (Bellman–Ford), and the minimum feasible Tc is the maximum ratio
// A_cycle / (−B_cycle) over cycles with B_cycle < 0. Cycles with
// B_cycle = 0 and A_cycle > 0 witness structural infeasibility at any
// cycle time.
//
// Solve uses Lawler-style witness-cycle jumping, exact up to floating
// point (the tests cross-check it against plain bisection). After each
// infeasible probe it also runs Howard's policy iteration seeded from
// the probe's predecessor graph (howard.go) and jumps to the larger of
// its best cycle ratio and the witness's, so a solve takes a handful of
// Bellman–Ford runs even where the witnesses alone would crawl through
// nearly critical cycles.
package mcr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"mintc/internal/core"
	"mintc/internal/obs"
)

// builder is one difference-constraint graph and its probe scratch.
// Node ids are fixed by layout: the origin is 0, phase p's start and
// end are 1+2p and 2+2p, and the departure nodes follow from 1+2k in
// increasing synchronizer order. Node names are rendered from the id
// on demand (nodeName), so a build allocates no string per node.
type builder struct {
	c     *core.Circuit
	opts  core.Options
	n     int
	edges []edge
	// node index helpers
	z int
	s []int
	e []int
	u []int // synchronizer -> departure node, or -1 outside the subsystem
	// uSync maps departure node 1+2k+j to its synchronizer (nil on a
	// full graph, where that is synchronizer j).
	uSync []int32
	// pathEdge[p] is the index of the constraint edge carrying path
	// p's worst-case delay (for incremental delay updates).
	pathEdge []int32
	// holdEdge[p] is the index of path p's conservative hold edge, or
	// -1 (no DesignForHold, Hold <= 0, or path excluded). Solver's
	// SetDelay repairs it alongside pathEdge, since the hold constant
	// carries the MinDelay clamp min(MinDelay, delay).
	holdEdge []int32

	// Worklist-probe scratch, allocated on first probe and reused
	// across probes and across Solver solves on the same builder. The
	// CSR out-adjacency stays valid under SetDelay (edge endpoints
	// never change, only the affine constants).
	outStart []int32 // CSR row index into the out-order arrays, len n+1
	outEdge  []int32 // edge indices grouped by source node
	// Structure-of-arrays copy of the edges in out order: position a
	// holds edge outEdge[a]'s head and constants, so a per-source
	// relaxation streams three arrays instead of chasing outEdge into
	// the edge list. setA keeps outA in step with edges under SetDelay;
	// edgePos[ei] is edge ei's position.
	outTo   []int32
	outA    []float64
	outB    []float64
	edgePos []int32

	dist   []float64
	pred   []int32  // predecessor edge index, or -1
	inq    []uint64 // worklist-membership bitset, one bit per node
	queue  []int32  // current-round worklist
	queue2 []int32  // next-round worklist (swapped each round)
	// Epoch-stamped visit marks shared by bestWitness (walk ids) and
	// probeDense's cycle extraction (path positions): a node is
	// "visited" iff wgen[v] == wepoch, so clearing between calls is a
	// counter bump instead of an O(n) wipe (with an O(n) reset only at
	// the uint32 wrap).
	wepoch uint32
	wgen   []uint32
	wmark  []int32 // bestWitness: id of the walk that visited the node
	// Position of the node along a walk (probeDense's cycle extraction,
	// howardEval), allocated by the first of them to run.
	wpos []int32
	// Dense-probe scratch (the reference fallback), kept separate from
	// dist/pred so a fallback never corrupts the warm-start potentials;
	// allocated on the first fallback.
	ddist []float64
	dpred []int32
	// distValid reports that dist holds finite potentials from a
	// previous probe, usable as a warm start (any finite start is
	// sound for feasibility: solutions of a difference-constraint
	// system are shift-invariant, so one dominating the start exists
	// whenever the system is feasible).
	distValid bool
	// seededPot marks that dist was installed from externally persisted
	// potentials (Solver.SeedPotentials) rather than left by a probe on
	// this builder; the first warm probe consuming it reports a
	// WarmPotentialHits tick.
	seededPot bool
	// witIdx holds the edge indices of the most recent witness cycle
	// any probe on this builder produced. Edge endpoints never change
	// under SetDelay — only the affine constants move — so the stored
	// cycle remains a real cycle of the graph, and its ratio recomputed
	// against the current constants (witnessBound) is always a
	// sound cycle-time lower bound, however stale the constants that
	// found it.
	witIdx []int32
	// Chunked-probe configuration and scratch (parallel.go). Zero
	// values select the defaults; tests override the cutoff and chunk
	// size to force tiny graphs through the chunked engine.
	probeWorkers  int // relaxation worker bound (0 = GOMAXPROCS)
	chunkCutoff   int // node count at which probes go chunked (0 = default)
	chunkSizeOver int // sources per chunk (0 = default)
	lanes         []*probeLane
	chunkRefs     []chunkRef
	// Policy-iteration scratch (howard.go), allocated on the first
	// infeasible probe that runs it.
	how howardScratch
}

// edge encodes the difference constraint x[to] >= x[from] + a + b*Tc.
type edge struct {
	from, to int32
	a, b     float64
}

// Result is the outcome of a min-cycle-ratio solve.
type Result struct {
	// Tc is the minimum feasible cycle time.
	Tc float64
	// Schedule is a concrete optimal clock schedule (the least
	// schedule in the difference-constraint lattice).
	Schedule *core.Schedule
	// D holds the departure times extracted with the schedule.
	D []float64
	// CriticalLoop names the constraint-graph nodes of the cycle whose
	// ratio determines Tc (empty when Tc is forced to 0 by no
	// ratio-bearing cycle).
	CriticalLoop []string
	// CriticalArcs is the same cycle as individual difference
	// constraints (x[To] >= x[From] + A + B·Tc), in walk order — the
	// machine-checkable optimality witness that internal/verify
	// re-walks arc by arc: the cycle must close, accumulate B < 0, and
	// have A/(−B) equal to Tc.
	CriticalArcs []CycleArc
	// CriticalRatio is A/(−B) of that cycle (== Tc when it binds).
	CriticalRatio float64
	// Probes counts Bellman–Ford feasibility probes.
	Probes int
	// Stats is the observability snapshot of the solve (probe counter,
	// "build"/"search" stage durations). Populated by SolveOverlayCtx.
	Stats obs.Stats

	// criticalA/criticalB hold the witness cycle's accumulated
	// constant and Tc coefficient (for Explain).
	criticalA, criticalB float64
}

// ErrInfeasible mirrors core.ErrInfeasible for structurally impossible
// constraint systems (a cycle needs positive time but crosses no cycle
// boundary).
var ErrInfeasible = errors.New("mcr: timing constraints are infeasible at any cycle time")

// CycleArc is one difference constraint of a witness cycle:
// x[To] >= x[From] + A + B·Tc, with From/To naming constraint-graph
// nodes (phase starts/ends, latch departures).
type CycleArc struct {
	From, To string
	A, B     float64
}

// InfeasibleError is the typed form of ErrInfeasible carrying the
// witness cycle: a closed loop of constraints that accumulates
// positive fixed delay (ΣA > 0) while crossing no net cycle boundary
// (ΣB >= 0), so no Tc can satisfy it. errors.Is(err, ErrInfeasible)
// matches it.
type InfeasibleError struct {
	Arcs []CycleArc
}

func (e *InfeasibleError) Error() string { return ErrInfeasible.Error() }

func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

const eps = 1e-9

// newBuilder assembles the difference-constraint graph of the
// snapshot behind ov, shared by the full solver and the decomposed
// per-component solvers: path delays are read through the overlay,
// and an optional member list restricts the system to a subset of
// synchronizers — only member syncs get departure nodes and rows, and
// only paths with both endpoints in the subset get constraint edges
// (clock rows are always emitted; they are shared by every subsystem).
// members == nil selects every synchronizer. pathEdge[p] is -1 for
// excluded paths. The edge list is sized exactly before it is filled.
func newBuilder(ov core.DelayOverlay, opts core.Options, members []int32) *builder {
	cc := ov.Base()
	c := cc.Circuit()
	k, l := c.K(), c.L()
	syncs, paths := c.Syncs(), c.Paths()
	b := &builder{c: c, opts: opts, z: 0, n: 1 + 2*k}
	b.s = make([]int, k)
	b.e = make([]int, k)
	for p := 0; p < k; p++ {
		b.s[p] = 1 + 2*p
		b.e[p] = 2 + 2*p
	}
	b.u = make([]int, l)
	if members == nil {
		for i := range b.u {
			b.u[i] = b.n
			b.n++
		}
	} else {
		// Mark the members, then number them in synchronizer order
		// whatever the order of the list.
		for i := range b.u {
			b.u[i] = -1
		}
		for _, m := range members {
			b.u[m] = 0
		}
		b.uSync = make([]int32, 0, len(members))
		for i := range b.u {
			if b.u[i] == 0 {
				b.u[i] = b.n
				b.n++
				b.uSync = append(b.uSync, int32(i))
			}
		}
	}
	nu := b.n - (1 + 2*k)

	km := cc.KMatrix()
	cm := cc.CMatrix()
	nedges := 4*k + max(k-1, 0) + 2*nu
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] != 0 {
				nedges++
			}
		}
	}
	for pidx := range paths {
		j, i := paths[pidx].From, paths[pidx].To
		if b.u[j] < 0 || b.u[i] < 0 {
			continue
		}
		nedges++
		if opts.DesignForHold && syncs[i].Hold > 0 {
			nedges++
		}
	}
	b.edges = make([]edge, 0, nedges)
	add := func(from, to int, a, bTc float64) {
		b.edges = append(b.edges, edge{from: int32(from), to: int32(to), a: a, b: bTc})
	}

	for p := 0; p < k; p++ {
		// C4/C1: s_p >= 0; s_p <= Tc; T_p >= 0 (e >= s); T_p <= Tc
		// (s >= e − Tc).
		add(b.z, b.s[p], 0, 0)
		add(b.s[p], b.z, 0, -1) // z >= s_p − Tc
		add(b.s[p], b.e[p], math.Max(0, opts.MinPhaseWidth), 0)
		add(b.e[p], b.s[p], 0, -1)
	}
	// C2 ordering.
	for p := 0; p+1 < k; p++ {
		add(b.s[p], b.s[p+1], 0, 0)
	}
	// C3 nonoverlap per K pair: s_i >= e_j − C_ji·Tc (+ separation).
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			add(b.e[j], b.s[i], opts.MinSeparation+sigma(opts, i)+sigma(opts, j), -float64(cm[j][i]))
		}
	}
	for i := range syncs {
		if b.u[i] < 0 {
			continue
		}
		sy := &syncs[i]
		p := sy.Phase
		// L3: u_i >= s_p.
		add(b.s[p], b.u[i], 0, 0)
		switch sy.Kind {
		case core.Latch:
			// L1: e_p >= u_i + ΔDC (+skew margins).
			add(b.u[i], b.e[p], sy.Setup+opts.Skew+sigma(opts, p), 0)
		case core.FlipFlop:
			// D_i = 0: u_i == s_p (the >= half is L3 above).
			add(b.u[i], b.s[p], 0, 0)
		}
	}
	b.pathEdge = make([]int32, len(paths))
	b.holdEdge = make([]int32, len(paths))
	for pidx := range paths {
		b.holdEdge[pidx] = -1
		j, i := paths[pidx].From, paths[pidx].To
		if b.u[j] < 0 || b.u[i] < 0 {
			b.pathEdge[pidx] = -1
			continue
		}
		si := &syncs[i]
		pj, pi := syncs[j].Phase, si.Phase
		cji := 0.0
		if pj >= pi {
			cji = 1
		}
		b.pathEdge[pidx] = int32(len(b.edges))
		a := b.pathA(pidx, ov.Delay(pidx))
		switch si.Kind {
		case core.Latch:
			// L2R: u_i >= u_j + w − C·Tc.
			add(b.u[j], b.u[i], a, -cji)
		case core.FlipFlop:
			// FF setup: s_{p_i} >= u_j + w + ΔDC_i − C·Tc.
			add(b.u[j], b.s[pi], a, -cji)
		}
		// Conservative hold rows, mirroring core.BuildLP exactly:
		// s_pj − [e_pi (latch) | s_pi (FF)] >= K − (1−C)·Tc.
		if opts.DesignForHold && si.Hold > 0 {
			from := b.e[pi]
			if si.Kind == core.FlipFlop {
				from = b.s[pi]
			}
			b.holdEdge[pidx] = int32(len(b.edges))
			add(from, b.s[pj], b.holdA(pidx, ov.MinDelay(pidx)), -(1 - cji))
		}
	}
	return b
}

// pathA is the constant of path pidx's constraint edge at worst-case
// delay d: the margin-adjusted transfer weight w of the LP's L2R rows
// and the analysis fixpoint, summed in core.ArcWeight's order
// (ΔDQ_j + d + Skew + σ_pj + σ_pi), plus the setup ΔDC_i on a
// flip-flop's edge. Building and Solver.SetDelay both sum it here, so
// an edited solver holds exactly the constants of one built over the
// edited overlay.
func (b *builder) pathA(pidx int, d float64) float64 {
	p, syncs := &b.c.Paths()[pidx], b.c.Syncs()
	sj, si := &syncs[p.From], &syncs[p.To]
	w := sj.DQ + d + b.opts.Skew + sigma(b.opts, sj.Phase) + sigma(b.opts, si.Phase)
	if si.Kind == core.FlipFlop {
		w += si.Setup
	}
	return w
}

// holdA is the constant K of path pidx's conservative hold edge at
// best-case delay minD, summed in core.BuildLP's order:
// ΔH_i − ΔDQ_j − minD + Skew + σ_pj + σ_pi.
func (b *builder) holdA(pidx int, minD float64) float64 {
	p, syncs := &b.c.Paths()[pidx], b.c.Syncs()
	sj, si := &syncs[p.From], &syncs[p.To]
	return si.Hold - sj.DQ - minD + b.opts.Skew + sigma(b.opts, sj.Phase) + sigma(b.opts, si.Phase)
}

// nodeName renders constraint-graph node v: "origin", "s.<phase>",
// "e.<phase>" or "u.<synchronizer>".
func (b *builder) nodeName(v int) string {
	k := len(b.s)
	switch {
	case v == b.z:
		return "origin"
	case v <= 2*k:
		p := (v - 1) / 2
		if v == b.s[p] {
			return "s." + b.c.PhaseName(p)
		}
		return "e." + b.c.PhaseName(p)
	}
	i := v - 1 - 2*k
	if b.uSync != nil {
		i = int(b.uSync[i])
	}
	return "u." + b.c.SyncName(i)
}

// sigma mirrors core's per-phase skew accessor.
func sigma(o core.Options, p int) float64 {
	if p < 0 || p >= len(o.PhaseSkew) {
		return 0
	}
	return o.PhaseSkew[p]
}

// ensureScratch lazily builds the CSR out-adjacency, its
// structure-of-arrays edge copy and the reusable probe buffers.
func (b *builder) ensureScratch() {
	if b.outStart != nil {
		return
	}
	n, m := b.n, len(b.edges)
	b.outStart = make([]int32, n+1)
	for _, e := range b.edges {
		b.outStart[e.from+1]++
	}
	for i := 0; i < n; i++ {
		b.outStart[i+1] += b.outStart[i]
	}
	b.outEdge = make([]int32, m)
	b.outTo = make([]int32, m)
	b.outA = make([]float64, m)
	b.outB = make([]float64, m)
	b.edgePos = make([]int32, m)
	fill := make([]int32, n)
	copy(fill, b.outStart[:n])
	for ei, e := range b.edges {
		a := fill[e.from]
		fill[e.from]++
		b.outEdge[a] = int32(ei)
		b.outTo[a] = e.to
		b.outA[a] = e.a
		b.outB[a] = e.b
		b.edgePos[ei] = a
	}
	b.dist = make([]float64, n)
	b.pred = make([]int32, n)
	b.inq = make([]uint64, (n+63)/64)
	b.queue = make([]int32, 0, n)
	b.queue2 = make([]int32, 0, n)
	b.wgen = make([]uint32, n)
	b.wmark = make([]int32, n)
}

// setA sets edge ei's constant in the edge list and, once built, in
// the out-order copy the relaxation kernels read.
func (b *builder) setA(ei int32, a float64) {
	b.edges[ei].a = a
	if b.edgePos != nil {
		b.outA[b.edgePos[ei]] = a
	}
}

// walkPos returns the walk-position scratch, allocating it on first
// use.
func (b *builder) walkPos() []int32 {
	if b.wpos == nil {
		b.wpos = make([]int32, b.n)
	}
	return b.wpos
}

// inQueue / setInQueue / clearInQueue are the worklist-membership
// bitset accessors (one cache line covers 512 nodes; the per-probe
// reset is an O(n/64) word wipe).
func (b *builder) inQueue(v int) bool   { return b.inq[v>>6]&(1<<uint(v&63)) != 0 }
func (b *builder) setInQueue(v int)     { b.inq[v>>6] |= 1 << uint(v&63) }
func (b *builder) clearInQueue(v int32) { b.inq[v>>6] &^= 1 << uint(v&63) }

// bumpEpoch starts a fresh visit epoch for the wgen stamps.
func (b *builder) bumpEpoch() uint32 {
	if b.wepoch == math.MaxUint32 {
		for i := range b.wgen {
			b.wgen[i] = 0
		}
		b.wepoch = 0
	}
	b.wepoch++
	return b.wepoch
}

// probe decides feasibility of the difference-constraint system at
// cycle time tc by worklist (SPFA-style) longest-path relaxation with
// edge weights a + b·tc. It returns the node potentials when feasible,
// or the edges of a positive-weight cycle when not. The returned dist
// aliases builder scratch and is overwritten by the next probe.
//
// With warm == true the relaxation starts from the potentials left by
// the previous probe instead of the -Inf origin point. That is sound
// for the feasibility verdict and the witness cycle (see distValid),
// and across Lawler jumps — where tc only increases, shrinking every
// edge weight — most potentials are already consistent, so warm probes
// touch a small fraction of the graph. The potentials of a warm
// feasible probe are NOT the canonical least solution, so callers that
// extract a schedule must finish with a cold probe.
//
// Past the chunked cutoff (parallel.go) the round drain runs on the
// fixed-chunk engine — identical results for every worker count by
// construction — and below it on the serial per-node worklist.
//
// The context is polled every round / every 1024 pops and during cycle
// extraction. Edge relaxations and rounds are reported to the obs
// recorder carried by ctx (ProbeRelaxations, ProbeRounds).
func (b *builder) probe(ctx context.Context, tc float64, warm bool) (dist []float64, witness []edge, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b.ensureScratch()
	n := b.n
	for i := 0; i < n; i++ {
		b.pred[i] = -1
	}
	for i := range b.inq {
		b.inq[i] = 0
	}
	if !warm || !b.distValid {
		for i := range b.dist {
			b.dist[i] = math.Inf(-1)
		}
		b.dist[b.z] = 0
		b.seededPot = false
	}
	rec := obs.From(ctx)
	if warm && b.distValid && b.seededPot {
		rec.Add(obs.WarmPotentialHits, 1)
		b.seededPot = false
	}
	b.distValid = true
	var relaxations int64
	defer func() { rec.Add(obs.ProbeRelaxations, relaxations) }()

	cur := b.queue[:0]
	// Seed sweep (round 1): one dense pass in edge-insertion order. The
	// builder emits edges roughly topologically (clock rows, then
	// per-sync rows, then path rows in path order), so this pass alone
	// nearly converges on feed-forward structures — the worklist then
	// drains only the genuinely iterative residual (loops, warm-start
	// slack).
	for ei := range b.edges {
		e := &b.edges[ei]
		if math.IsInf(b.dist[e.from], -1) {
			continue
		}
		if d := b.dist[e.from] + e.a + e.b*tc; d > b.dist[e.to]+eps {
			b.dist[e.to] = d
			b.pred[e.to] = int32(ei)
			relaxations++
			if !b.inQueue(int(e.to)) {
				b.setInQueue(int(e.to))
				cur = append(cur, e.to)
			}
		}
	}
	b.queue = cur
	var witIdx []int32
	if n >= b.chunkedCutoffVal() {
		witIdx, err = b.drainChunked(ctx, tc, &relaxations, rec)
	} else {
		witIdx, err = b.drainSerial(ctx, tc, &relaxations, rec)
	}
	if err != nil {
		if errors.Is(err, errDenseFallback) {
			// Saturated yet nothing certifies (eps-tolerance corner):
			// defer to the dense reference probe.
			return b.probeDense(ctx, tc)
		}
		return nil, nil, err
	}
	if witIdx != nil {
		b.witIdx = append(b.witIdx[:0], witIdx...)
		return nil, b.edgesOf(witIdx), nil
	}
	return b.dist, nil, nil
}

// anchorPotentials shifts feasible warm potentials so the origin sits
// at zero again. A uniform shift maps every solution of the difference
// constraints to another, so this changes no verdict. It keeps a long
// warm walk — a sweep, or a per-point checker re-solving one Solver
// hundreds of thousands of times — from creeping: each lowered tc lifts
// every potential on a tight cycle, the origin's included, and once the
// magnitudes reach ~2^16 the rounding error summed over a lap of a
// thousand-edge tight cycle exceeds eps, so every later probe pumps
// noise around the cycle for hundreds of rounds.
func (b *builder) anchorPotentials() {
	off := b.dist[b.z]
	if off == 0 || math.IsInf(off, 0) {
		return
	}
	for i := range b.dist {
		b.dist[i] -= off
	}
}

// errDenseFallback is the drain engines' private signal that the
// worklist saturated past round n+1 without a certifiable witness;
// probe answers it with the dense reference probe.
var errDenseFallback = errors.New("mcr: worklist saturated without witness")

// scanStartRound is the first round at which a drain scans the pred
// graph for an already-certified positive cycle, doubling after each
// miss so scans stay amortized against relaxation work. The policy is
// shared by cold and warm probes: on giant strongly connected graphs
// the witness cycle is complete in the pred graph within a few rounds
// of the seed sweep, and waiting for the round-n+1 saturation bound —
// the policy before the scan existed — is what made a single cold
// infeasible probe cost n dense rounds (the entire ring-2x100k solve
// was one such probe). An early witness may be much weaker than the
// saturation one: on the uniform ring-2x10k the witnesses alone take
// 583 probes to reach the optimum. solveFrom therefore follows every
// infeasible probe with the policy-iteration step, which turns the weak
// witness's pred graph into a near-optimal cycle; each O(n) scan is
// amortized by the doubling.
const scanStartRound = 16

// drainSerial is the per-node worklist drain used below the chunked
// cutoff: each swap of cur/next is one Bellman–Ford pass restricted to
// the nodes whose potential changed last round. Without a positive
// cycle every potential equals its best-walk value (≤ n−1 edges)
// within n rounds — the +1 absorbs the warm start, which acts as a
// virtual source edge into every node — so a worklist still active
// past round n+1 certifies a positive cycle even if no scan fired.
// Returns the witness cycle's edge indices, nil when the worklist
// drained (feasible), or errDenseFallback.
func (b *builder) drainSerial(ctx context.Context, tc float64, relaxations *int64, rec *obs.Rec) ([]int32, error) {
	n := b.n
	cur, next := b.queue, b.queue2[:0]
	defer func() { b.queue, b.queue2 = cur[:0], next[:0] }()
	checkRound := scanStartRound
	pops := 0
	rounds := int64(0)
	defer func() { rec.Add(obs.ProbeRounds, rounds) }()
	for ; len(cur) > 0; rounds++ {
		if int(rounds)+1 > checkRound {
			cyc, cerr := b.bestWitness(ctx, tc)
			if cerr != nil {
				return nil, cerr
			}
			if cyc != nil {
				return cyc, nil
			}
			if int(rounds)+1 > n+1 {
				return nil, errDenseFallback
			}
			if checkRound *= 2; checkRound > n+1 {
				checkRound = n + 1
			}
		}
		if len(cur)*4 >= n {
			// Dense round: most of the graph is active, so one
			// contiguous sweep of the edge array beats per-node CSR
			// chasing and queue bookkeeping.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, u := range cur {
				b.clearInQueue(u)
			}
			for ei := range b.edges {
				e := &b.edges[ei]
				if math.IsInf(b.dist[e.from], -1) {
					continue
				}
				if d := b.dist[e.from] + e.a + e.b*tc; d > b.dist[e.to]+eps {
					b.dist[e.to] = d
					b.pred[e.to] = int32(ei)
					*relaxations++
					if !b.inQueue(int(e.to)) {
						b.setInQueue(int(e.to))
						next = append(next, e.to)
					}
				}
			}
		} else {
			for _, u := range cur {
				b.clearInQueue(u)
				if pops++; pops&1023 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				du := b.dist[u]
				r0, r1 := b.outStart[u], b.outStart[u+1]
				tos := b.outTo[r0:r1]
				as := b.outA[r0:r1]
				bs := b.outB[r0:r1]
				eis := b.outEdge[r0:r1]
				for i, to := range tos {
					if d := du + as[i] + bs[i]*tc; d > b.dist[to]+eps {
						b.dist[to] = d
						b.pred[to] = eis[i]
						*relaxations++
						if !b.inQueue(int(to)) {
							b.setInQueue(int(to))
							next = append(next, to)
						}
					}
				}
			}
		}
		cur, next = next, cur[:0]
	}
	return nil, nil
}

// edgesOf materializes witness edge indices as edge values (the form
// solveFrom accumulates and setWitness renders).
func (b *builder) edgesOf(idx []int32) []edge {
	out := make([]edge, len(idx))
	for i, ei := range idx {
		out[i] = b.edges[ei]
	}
	return out
}

// bestWitness scans the whole predecessor graph for cycles and returns
// the edge indices of the most binding one that certifies as strictly
// positive at tc: a structural cycle (no Tc coefficient — infeasible
// at every cycle time) if present, otherwise the maximum-ratio cycle.
// A drain would otherwise fire on whichever cycle happens to be
// noticed first — usually a short one, not the strongest — and a weak
// witness would cost Lawler extra jumps; since each node has at most
// one predecessor edge, the pred graph is functional and this full
// scan is O(n). Returns nil when no cycle certifies (the caller falls
// back to the dense probe).
func (b *builder) bestWitness(ctx context.Context, tc float64) ([]int32, error) {
	ep := b.bumpEpoch()
	gen, mark := b.wgen, b.wmark
	var best []int32
	bestScore := math.Inf(-1)
	for s := 0; s < b.n; s++ {
		if gen[s] == ep {
			continue
		}
		if s&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Follow pred until the walk dies, merges into an earlier walk,
		// or closes on itself (a fresh cycle).
		v := s
		for v >= 0 && gen[v] != ep {
			gen[v] = ep
			mark[v] = int32(s)
			if ei := b.pred[v]; ei < 0 {
				v = -1
			} else {
				v = int(b.edges[ei].from)
			}
		}
		if v < 0 || mark[v] != int32(s) {
			continue
		}
		var cyc []int32
		var sumA, sumB float64
		for cur := v; ; {
			ei := b.pred[cur]
			e := b.edges[ei]
			cyc = append(cyc, ei)
			sumA += e.a
			sumB += e.b
			if cur = int(e.from); cur == v {
				break
			}
		}
		if sumA+sumB*tc <= eps {
			continue // not certifiably positive at tc
		}
		score := math.Inf(1) // structural: binds at every cycle time
		if sumB < -eps {
			score = sumA / -sumB
		}
		if score > bestScore {
			bestScore, best = score, cyc
		}
	}
	return best, nil
}

// probeDense is the reference Bellman–Ford probe: n−1 full relaxation
// passes from the origin. It is retained as the authority the worklist
// probe falls back to when cycle certification fails, and as the
// oracle for the worklist-vs-dense property tests. The context is
// polled once per pass and during cycle extraction.
func (b *builder) probeDense(ctx context.Context, tc float64) (dist []float64, witness []edge, err error) {
	b.ensureScratch()
	if b.ddist == nil {
		b.ddist = make([]float64, b.n)
		b.dpred = make([]int32, b.n)
	}
	dist = b.ddist // separate from b.dist: a fallback must not clobber warm potentials
	pred := b.dpred
	for i := range dist {
		dist[i] = math.Inf(-1)
		pred[i] = -1
	}
	dist[b.z] = 0
	relax := func() int {
		changed := -1
		for ei, e := range b.edges {
			if math.IsInf(dist[e.from], -1) {
				continue
			}
			w := e.a + e.b*tc
			if d := dist[e.from] + w; d > dist[e.to]+eps {
				dist[e.to] = d
				pred[e.to] = int32(ei)
				changed = int(e.to)
			}
		}
		return changed
	}
	for i := 0; i < b.n-1; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if relax() == -1 {
			return dist, nil, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	v := relax()
	if v == -1 {
		return dist, nil, nil
	}
	// Walk back n steps to land on the cycle, then extract it.
	for i := 0; i < b.n; i++ {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		v = int(b.edges[pred[v]].from)
	}
	ep := b.bumpEpoch()
	gen, pos := b.wgen, b.walkPos()
	var path []int32
	cur := v
	for {
		if len(path)&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		if gen[cur] == ep {
			// path[pos[cur]:] runs backwards along the cycle.
			cyc := path[pos[cur]:]
			b.witIdx = append(b.witIdx[:0], cyc...)
			return nil, b.edgesOf(cyc), nil
		}
		gen[cur] = ep
		pos[cur] = int32(len(path))
		ei := pred[cur]
		if ei < 0 {
			// Shouldn't happen: cycle nodes always have predecessors.
			return nil, b.edgesOf(path), nil
		}
		path = append(path, ei)
		cur = int(b.edges[ei].from)
	}
}

// Solve computes the optimal cycle time by Lawler-style witness
// jumping: start at a lower bound, and while the system is infeasible,
// jump to the ratio of the witness cycle (or of the better cycle the
// policy-iteration step finds, see solveFrom). Each jump strictly increases
// the candidate through the finite set of simple-cycle ratios, so the
// loop terminates with the exact maximum cycle ratio. The circuit is
// frozen first and solved through its empty overlay (SolveOverlayCtx).
func Solve(c *core.Circuit, opts core.Options) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return SolveOverlayCtx(context.Background(), cc.Overlay(), opts)
}

// SolveOverlayCtx is Solve against a frozen snapshot with the
// overlay's delay edits applied, with cancellation and observability:
// the context is honored inside every Bellman–Ford pass and the
// witness-jumping loop, and probe counts plus "build"/"search" stage
// timings are reported into the obs recorder carried by the context
// (one is created when absent, so Result.Stats is always populated).
// The snapshot was validated at Freeze; only the options are checked.
func SolveOverlayCtx(ctx context.Context, ov core.DelayOverlay, opts core.Options) (*Result, error) {
	if !ov.Valid() {
		return nil, errors.New("mcr: solve on a zero DelayOverlay (start from Circuit.Freeze)")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Objective.IsMinTc() {
		// The cycle-ratio formulation has no notion of alternate cost
		// vectors; the supervisor routes schedule objectives to the LP.
		return nil, fmt.Errorf("mcr: objective %s is not supported (min-Tc only)", opts.Objective)
	}
	rec := obs.From(ctx)
	if rec == nil {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	var b *builder
	if err := rec.Phase(ctx, "build", func(context.Context) error {
		b = newBuilder(ov, opts, nil)
		return nil
	}); err != nil {
		return nil, err
	}
	var res *Result
	err := rec.Phase(ctx, "search", func(ctx context.Context) error {
		var serr error
		res, serr = solveWith(ctx, b, opts)
		return serr
	})
	if err != nil {
		return nil, err
	}
	res.Stats = rec.Snapshot()
	return res, nil
}

// solveWith runs the witness-jumping loop on an already-built
// constraint graph (shared by SolveOverlayCtx and Solver.Solve).
func solveWith(ctx context.Context, b *builder, opts core.Options) (*Result, error) {
	return solveFrom(ctx, b, opts, 0, true, false)
}

// solveFrom is the witness-jumping loop starting from a caller-supplied
// cycle-time lower bound. Any sound lower bound is admissible (the
// decomposed solver passes the max over per-component optima): if the
// first probe at the bound is feasible, the bound is the optimum —
// feasible + lower bound = optimal — and otherwise the Lawler jumps
// proceed exactly as from zero, converging to the same maximum cycle
// ratio. With extract == false the cold extraction re-probe is skipped
// and the result carries Tc and the witness cycle but no schedule or
// departures — the mode sweeps use, since they report Tc only. With
// firstWarm == true even the first probe reuses the potentials left by
// the previous solve on the same builder; any finite potentials are
// admissible starting points for the Bellman–Ford feasibility probe
// (shift invariance), so this changes cost, never answers. A warm
// solve also starts no lower than the stored witness's re-priced ratio
// (witnessBound), another sound bound.
//
// Each infeasible probe is followed by Howard's policy iteration on the
// probe's predecessor graph (howard.go). Its best policy cycle is a
// real cycle, so its ratio is as sound a lower bound as the witness's;
// the loop jumps to it, and records it as the witness, when it beats
// the witness ratio by more than eps. The probes alone still decide
// feasibility, and the Lawler jumps finish whatever the policy
// iteration leaves.
func solveFrom(ctx context.Context, b *builder, opts core.Options, lower float64, extract, firstWarm bool) (*Result, error) {
	rec := obs.From(ctx)
	res := &Result{}
	tc := lower
	// An unseeded warm re-solve with a stored witness is one step of a
	// long walk (anchorPotentials). Seeded and cold solves are not, and
	// extraction ends on a cold probe, which re-anchors by itself.
	walk := firstWarm && !extract && len(b.witIdx) > 0
	fromWitness := false
	if firstWarm {
		if wb, ok := b.witnessBound(); ok && wb > tc {
			tc, fromWitness = wb, true
		}
	}
	if opts.FixedTc > tc {
		tc, fromWitness = opts.FixedTc, false
	}
	var lastWitness []edge
	for iter := 0; ; iter++ {
		if iter > len(b.edges)*b.n+64 {
			return nil, fmt.Errorf("mcr: witness iteration failed to converge (tc=%g)", tc)
		}
		res.Probes++
		rec.Add(obs.Probes, 1)
		// Warm-start every probe after the first: each Lawler jump only
		// raises tc, which shrinks every edge weight, so the previous
		// potentials already satisfy most constraints and the warm probe
		// touches a small residual of the graph. The price is one cold
		// extraction re-probe at the final (feasible) tc — roughly what
		// a single cold probe would have cost anyway, amortized over
		// every intermediate probe turned near-free.
		warm := iter > 0 || firstWarm
		dist, witness, err := b.probe(ctx, tc, warm)
		if err != nil {
			return nil, err
		}
		if witness == nil {
			if !extract {
				res.Tc = tc
				b.setWitness(res, lastWitness)
				if walk {
					b.anchorPotentials()
				}
			} else {
				if warm {
					// Warm potentials certify feasibility but are not the
					// canonical least solution; re-probe cold so the
					// extracted schedule is the least one in the lattice.
					res.Probes++
					rec.Add(obs.Probes, 1)
					dist, witness, err = b.probe(ctx, tc, false)
					if err != nil {
						return nil, err
					}
					if witness != nil {
						return nil, fmt.Errorf("mcr: cold re-probe found a witness at feasible tc=%g", tc)
					}
				}
				if fromWitness && iter == 0 {
					// Feasible at the re-priced witness: that cycle
					// binds, and the schedule reports it like a cold
					// solve would.
					lastWitness = b.edgesOf(b.witIdx)
				}
				b.extract(res, tc, dist, lastWitness)
			}
			if opts.FixedTc > 0 && tc > opts.FixedTc+eps {
				return nil, fmt.Errorf("mcr: requested Tc %g below minimum %g", opts.FixedTc, tc)
			}
			return res, nil
		}
		var sumA, sumB float64
		for _, e := range witness {
			sumA += e.a
			sumB += e.b
		}
		if sumB >= -eps {
			// Cycle needs positive slack but crosses no boundary.
			return nil, &InfeasibleError{Arcs: b.cycleArcs(witness)}
		}
		ratio := sumA / (-sumB)
		// On a tie the policy cycle may be the witness's own cycle or
		// an equally critical one, its ratio summed from another start
		// and so off in the last bit. The eps margin keeps the witness
		// then: decomp.Sweep answers must not depend on worker count.
		hr, hcyc, stable, err := b.howard(ctx)
		if err != nil {
			return nil, err
		}
		if hr > ratio+eps {
			ratio = hr
			b.witIdx = append(b.witIdx[:0], hcyc...)
			witness = b.edgesOf(hcyc)
		}
		if stable {
			// A stable policy's potentials already satisfy every
			// constraint at its ratio, which is the maximum: seeding the
			// next warm probe with them leaves it nothing to relax, where
			// this probe's pumped potentials would send a correction
			// wave once around every critical loop.
			copy(b.dist, b.how.pot)
		}
		if ratio <= tc+eps {
			// Numerical guard: force progress.
			ratio = tc + eps*10
		}
		tc = ratio
		lastWitness = witness
	}
}

// extract converts origin-based potentials into a Schedule and
// departure vector.
func (b *builder) extract(res *Result, tc float64, dist []float64, witness []edge) {
	c := b.c
	res.Tc = tc
	sched := core.NewSchedule(c.K())
	sched.Tc = tc
	for p := 0; p < c.K(); p++ {
		sched.S[p] = dist[b.s[p]]
		sched.T[p] = dist[b.e[p]] - dist[b.s[p]]
	}
	res.Schedule = sched
	res.D = make([]float64, c.L())
	for i := 0; i < c.L(); i++ {
		if b.u[i] < 0 {
			continue // excluded from the subsystem; departure undefined
		}
		res.D[i] = dist[b.u[i]] - dist[b.s[c.Sync(i).Phase]]
	}
	b.setWitness(res, witness)
}

// setWitness fills the result's critical-cycle fields from a witness
// (no-op when nil).
func (b *builder) setWitness(res *Result, witness []edge) {
	if witness == nil {
		return
	}
	var sumA, sumB float64
	for _, e := range witness {
		res.CriticalLoop = append(res.CriticalLoop, b.nodeName(int(e.to)))
		sumA += e.a
		sumB += e.b
	}
	if sumB < -eps {
		res.CriticalRatio = sumA / (-sumB)
	}
	res.criticalA = sumA
	res.criticalB = sumB
	res.CriticalArcs = b.cycleArcs(witness)
}

// cycleArcs renders a witness cycle into exported arcs with node
// names, the form certificate checkers consume.
func (b *builder) cycleArcs(witness []edge) []CycleArc {
	arcs := make([]CycleArc, 0, len(witness))
	for _, e := range witness {
		arcs = append(arcs, CycleArc{From: b.nodeName(int(e.from)), To: b.nodeName(int(e.to)), A: e.a, B: e.b})
	}
	return arcs
}

// Explain renders the optimality certificate carried by the critical
// cycle: the loop of constraints whose accumulated fixed delay must
// fit in the accumulated number of cycle boundaries, proving
// Tc >= delay/crossings. Returns "" when no ratio-bearing cycle binds
// (Tc* = 0 or Tc was fixed above the minimum).
func (r *Result) Explain() string {
	if len(r.CriticalLoop) == 0 || r.criticalB >= -eps {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical constraint loop (%d nodes): %s\n",
		len(r.CriticalLoop), strings.Join(r.CriticalLoop, " -> "))
	crossings := -r.criticalB
	fmt.Fprintf(&b, "accumulated delay %.6g over %.6g cycle boundary crossing(s)\n", r.criticalA, crossings)
	fmt.Fprintf(&b, "=> Tc >= %.6g / %.6g = %.6g, which the schedule achieves exactly\n",
		r.criticalA, crossings, r.CriticalRatio)
	return b.String()
}
