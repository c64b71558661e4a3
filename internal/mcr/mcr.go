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
// Two engines are provided: Solve (Lawler-style witness-cycle jumping,
// exact up to floating point) and SolveBinary (plain bisection, used
// for cross-checking). After each infeasible probe Solve also runs
// Howard's policy iteration seeded from the probe's predecessor graph
// (howard.go) and jumps to the larger of its best cycle ratio and the
// witness's, so a solve takes a handful of Bellman–Ford runs even where
// the witnesses alone would crawl through nearly critical cycles.
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

// node ids inside the constraint graph.
type builder struct {
	c     *core.Circuit
	opts  core.Options
	n     int
	edges []edge
	// node index helpers
	z     int
	s     []int
	e     []int
	u     []int
	names []string
	// pathEdge[p] is the index of the constraint edge carrying path
	// p's worst-case delay (for incremental delay updates).
	pathEdge []int
	// holdEdge[p] is the index of path p's conservative hold edge, or
	// -1 (no DesignForHold, Hold <= 0, or path excluded). Solver's
	// SetDelay repairs it alongside pathEdge, since the hold constant
	// carries the MinDelay clamp min(MinDelay, delay).
	holdEdge []int

	// Worklist-probe scratch, allocated on first probe and reused
	// across probes and across Solver solves on the same builder. The
	// CSR out-adjacency stays valid under SetDelay (edge endpoints
	// never change, only the affine constants).
	outStart []int32 // CSR row index into outEdge, len n+1
	outEdge  []int32 // edge indices grouped by source node
	dist     []float64
	pred     []int32  // predecessor edge index, or -1
	inq      []uint64 // worklist-membership bitset, one bit per node
	queue    []int32  // current-round worklist
	queue2   []int32  // next-round worklist (swapped each round)
	// Epoch-stamped visit marks shared by bestWitness (walk ids) and
	// probeDense's cycle extraction (path positions): a node is
	// "visited" iff wgen[v] == wepoch, so clearing between calls is a
	// counter bump instead of an O(n) wipe (with an O(n) reset only at
	// the uint32 wrap).
	wepoch uint32
	wgen   []uint32
	wmark  []int32 // bestWitness: id of the walk that visited the node
	wpos   []int32 // probeDense: position of the node along the cycle walk
	// Dense-probe scratch (the reference fallback), kept separate from
	// dist/pred so a fallback never corrupts the warm-start potentials.
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
	// against the current constants (Solver.WitnessBound) is always a
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
	from, to int
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
	// "build"/"search" stage durations). Populated by SolveCtx.
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

// newBuilder assembles the difference-constraint graph for circuit c.
func newBuilder(c *core.Circuit, opts core.Options) *builder {
	return newBuilderSub(c, opts, nil, nil)
}

// newBuilderSub is the generalized graph assembly shared by the full
// solver and the decomposed per-component solvers: path delays are
// read through an optional overlay (nil = the circuit's own delays),
// and an optional membership mask restricts the system to a subset of
// synchronizers — only member syncs get departure nodes and rows, and
// only paths with both endpoints in the subset get constraint edges
// (clock rows are always emitted; they are shared by every subsystem).
// With inComp == nil and ov == nil the graph is bit-identical to the
// original monolithic builder. pathEdge[p] is -1 for excluded paths.
func newBuilderSub(c *core.Circuit, opts core.Options, ov *core.DelayOverlay, inComp []bool) *builder {
	k, l := c.K(), c.L()
	b := &builder{c: c, opts: opts}
	alloc := func(name string) int {
		id := b.n
		b.n++
		b.names = append(b.names, name)
		return id
	}
	member := func(i int) bool { return inComp == nil || inComp[i] }
	delayOf := func(pidx int) (d, min float64) {
		if ov != nil {
			return ov.Delay(pidx), ov.MinDelay(pidx)
		}
		p := c.Paths()[pidx]
		return p.Delay, p.MinDelay
	}
	b.z = alloc("origin")
	b.s = make([]int, k)
	b.e = make([]int, k)
	for p := 0; p < k; p++ {
		b.s[p] = alloc("s." + c.PhaseName(p))
		b.e[p] = alloc("e." + c.PhaseName(p))
	}
	b.u = make([]int, l)
	for i := 0; i < l; i++ {
		if member(i) {
			b.u[i] = alloc("u." + c.SyncName(i))
		} else {
			b.u[i] = -1
		}
	}
	add := func(from, to int, a, bTc float64) {
		b.edges = append(b.edges, edge{from: from, to: to, a: a, b: bTc})
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
	km := c.KMatrix()
	cm := c.CMatrix()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			add(b.e[j], b.s[i], opts.MinSeparation+sigma(opts, i)+sigma(opts, j), -float64(cm[j][i]))
		}
	}
	for i, sy := range c.Syncs() {
		if !member(i) {
			continue
		}
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
	b.pathEdge = make([]int, len(c.Paths()))
	b.holdEdge = make([]int, len(c.Paths()))
	for pidx := range b.holdEdge {
		b.holdEdge[pidx] = -1
	}
	for pidx, path := range c.Paths() {
		j, i := path.From, path.To
		if !member(j) || !member(i) {
			b.pathEdge[pidx] = -1
			continue
		}
		pj, pi := c.Sync(j).Phase, c.Sync(i).Phase
		cji := 0.0
		if pj >= pi {
			cji = 1
		}
		// Same margin-adjusted transfer weight as the LP's L2R rows and
		// the analysis fixpoint, with the delay read through the overlay
		// (DelayOverlay.ArcWeight sums the same five terms in the same
		// order as core.ArcWeight, so the no-edit case is bit-identical).
		_, minDelay := delayOf(pidx)
		var w float64
		if ov != nil {
			w = ov.ArcWeight(opts, pidx)
		} else {
			w = core.ArcWeight(c, opts, pidx)
		}
		b.pathEdge[pidx] = len(b.edges)
		switch c.Sync(i).Kind {
		case core.Latch:
			// L2R: u_i >= u_j + w − C·Tc.
			add(b.u[j], b.u[i], w, -cji)
		case core.FlipFlop:
			// FF setup: s_{p_i} >= u_j + w + ΔDC_i − C·Tc.
			add(b.u[j], b.s[pi], w+c.Sync(i).Setup, -cji)
		}
		// Conservative hold rows, mirroring core.BuildLP exactly:
		// s_pj − [e_pi (latch) | s_pi (FF)] >= K − (1−C)·Tc.
		if opts.DesignForHold && c.Sync(i).Hold > 0 {
			kconst := c.Sync(i).Hold - c.Sync(j).DQ - minDelay +
				opts.Skew + sigma(opts, pj) + sigma(opts, pi)
			from := b.e[pi]
			if c.Sync(i).Kind == core.FlipFlop {
				from = b.s[pi]
			}
			b.holdEdge[pidx] = len(b.edges)
			add(from, b.s[pj], kconst, -(1 - cji))
		}
	}
	return b
}

// sigma mirrors core's per-phase skew accessor.
func sigma(o core.Options, p int) float64 {
	if p < 0 || p >= len(o.PhaseSkew) {
		return 0
	}
	return o.PhaseSkew[p]
}

// ensureScratch lazily builds the CSR out-adjacency and the reusable
// probe buffers.
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
	fill := make([]int32, n)
	copy(fill, b.outStart[:n])
	for ei, e := range b.edges {
		b.outEdge[fill[e.from]] = int32(ei)
		fill[e.from]++
	}
	b.dist = make([]float64, n)
	b.pred = make([]int32, n)
	b.inq = make([]uint64, (n+63)/64)
	b.queue = make([]int32, 0, n)
	b.queue2 = make([]int32, 0, n)
	b.wgen = make([]uint32, n)
	b.wmark = make([]int32, n)
	b.wpos = make([]int32, n)
	b.ddist = make([]float64, n)
	b.dpred = make([]int32, n)
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
			if !b.inQueue(e.to) {
				b.setInQueue(e.to)
				cur = append(cur, int32(e.to))
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
					if !b.inQueue(e.to) {
						b.setInQueue(e.to)
						next = append(next, int32(e.to))
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
				for a := b.outStart[u]; a < b.outStart[u+1]; a++ {
					ei := b.outEdge[a]
					e := &b.edges[ei]
					if d := du + e.a + e.b*tc; d > b.dist[e.to]+eps {
						b.dist[e.to] = d
						b.pred[e.to] = ei
						*relaxations++
						if !b.inQueue(e.to) {
							b.setInQueue(e.to)
							next = append(next, int32(e.to))
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
				v = b.edges[ei].from
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
			if cur = e.from; cur == v {
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
				changed = e.to
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
		v = b.edges[pred[v]].from
	}
	ep := b.bumpEpoch()
	gen, pos := b.wgen, b.wpos
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
		cur = b.edges[ei].from
	}
}

// Solve computes the optimal cycle time by Lawler-style witness
// jumping: start at a lower bound, and while the system is infeasible,
// jump to the ratio of the witness cycle (or of the better cycle the
// policy-iteration step finds, see solveFrom). Each jump strictly increases
// the candidate through the finite set of simple-cycle ratios, so the
// loop terminates with the exact maximum cycle ratio.
func Solve(c *core.Circuit, opts core.Options) (*Result, error) {
	return SolveCtx(context.Background(), c, opts)
}

// SolveCtx is Solve with cancellation and observability: the context is
// honored inside every Bellman–Ford pass and the witness-jumping loop,
// and probe counts plus "build"/"search" stage timings are reported
// into the obs recorder carried by the context (one is created when
// absent, so Result.Stats is always populated).
func SolveCtx(ctx context.Context, c *core.Circuit, opts core.Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
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
		b = newBuilder(c, opts)
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
// constraint graph (shared by SolveCtx and Solver.Solve).
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
// (shift invariance), so this changes cost, never answers.
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
	if opts.FixedTc > tc {
		tc = opts.FixedTc
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

// SolveBinary computes the optimal cycle time by bisection to the given
// absolute tolerance (used as an independent cross-check of Solve).
func SolveBinary(c *core.Circuit, opts core.Options, tol float64) (*Result, error) {
	return SolveBinaryCtx(context.Background(), c, opts, tol)
}

// SolveBinaryCtx is SolveBinary with cancellation: the context is
// polled inside every Bellman–Ford probe and between bisection steps.
func SolveBinaryCtx(ctx context.Context, c *core.Circuit, opts core.Options, tol float64) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = 1e-7
	}
	rec := obs.From(ctx)
	b := newBuilder(c, opts)
	res := &Result{}
	// Bisection moves tc in both directions, so every probe runs cold
	// (warm starts are only sound as feasibility oracles; the endpoint
	// probes below also feed extraction, which needs least potentials).
	probe := func(tc float64) ([]float64, []edge, error) {
		res.Probes++
		rec.Add(obs.Probes, 1)
		return b.probe(ctx, tc, false)
	}
	// Upper bound: any Tc beyond the sum of all positive constants is
	// feasible unless the system is structurally infeasible.
	hi := 1.0
	for _, e := range b.edges {
		if e.a > 0 {
			hi += e.a
		}
	}
	if _, witness, err := probe(hi); err != nil {
		return nil, err
	} else if witness != nil {
		return nil, ErrInfeasible
	}
	if dist, witness, err := probe(0); err != nil {
		return nil, err
	} else if witness == nil {
		b.extract(res, 0, dist, nil)
		return res, nil
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		_, witness, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if witness == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	dist, witness, err := probe(hi)
	if err != nil {
		return nil, err
	}
	if witness != nil {
		return nil, fmt.Errorf("mcr: bisection landed on infeasible point")
	}
	b.extract(res, hi, dist, nil)
	return res, nil
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
		res.CriticalLoop = append(res.CriticalLoop, b.names[e.to])
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
		arcs = append(arcs, CycleArc{From: b.names[e.from], To: b.names[e.to], A: e.a, B: e.b})
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
