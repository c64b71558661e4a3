package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"mintc/internal/core"
	"mintc/internal/obs"
)

// MCConfig tunes a Monte-Carlo simulation run.
type MCConfig struct {
	// Cycles per trial (default 32).
	Cycles int
	// Trials is the number of independent randomized runs (default 50).
	Trials int
	// WarmupCycles suppresses violation counting while the wavefront
	// settles (default 2).
	WarmupCycles int
	// Workers bounds the goroutines running trials concurrently
	// (default GOMAXPROCS, capped at Trials; 1 forces a sequential
	// run). The result is bit-identical for every worker count: each
	// trial owns a sub-RNG seeded up front from the caller's rng, and
	// trial summaries merge through order-independent reductions
	// (integer sums and a float min).
	Workers int
}

// MCResult summarizes a Monte-Carlo run.
type MCResult struct {
	Trials int
	// FailingTrials counts trials with at least one setup violation.
	FailingTrials int
	// TotalViolations across all trials (post-warmup).
	TotalViolations int
	// WorstSlack is the minimum setup slack observed anywhere.
	WorstSlack float64
}

// RunMonteCarlo simulates a frozen snapshot seen through a delay
// overlay with per-cycle random delay variation: in every cycle each
// combinational path independently draws its delay uniformly from
// [MinDelay, Delay]. Because the static model (core.CheckTc) verifies
// the worst case — every path simultaneously at its maximum — a
// schedule that passes the static analysis can never fail under
// sampled delays (departures are monotone in the delays). The
// Monte-Carlo run therefore serves two purposes: a randomized
// soundness check of that monotonicity argument, and a way to observe
// the actual slack distribution under realistic (non-worst-case)
// conditions.
//
// The snapshot's cached kernel (Base/Span refolded for edited paths)
// and phase order are reused, nothing is validated per call, and
// nothing shared is mutated — concurrent campaigns over divergent
// overlays of one snapshot are safe and results stay bit-identical to
// mutating a clone. Every worker polls the context once per simulated
// cycle, and trial/cycle counts are reported into any obs recorder
// carried by the context. On cancellation the merged result of the
// trials completed so far is returned alongside the context's error
// (MCResult.Trials reflects the trials actually completed; trials
// aborted mid-flight contribute nothing, keeping even partial results
// well-defined).
//
// The caller's rng is only used up front, to draw one sub-seed per
// trial; the trials themselves run on private PRNGs. A fixed seed
// therefore reproduces the exact same statistics regardless of
// Workers, GOMAXPROCS, or scheduling.
func RunMonteCarlo(ctx context.Context, ov core.DelayOverlay, sched *core.Schedule, cfg MCConfig, rng *rand.Rand) (*MCResult, error) {
	if !ov.Valid() {
		return nil, fmt.Errorf("sim: RunMonteCarlo on a zero DelayOverlay (start from Compiled.Overlay)")
	}
	c := ov.Base().Circuit()
	if sched.K() != c.K() {
		return nil, fmt.Errorf("sim: schedule has %d phases, circuit has %d", sched.K(), c.K())
	}
	if rng == nil {
		return nil, fmt.Errorf("sim: RunMonteCarlo needs an explicit *rand.Rand")
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 32
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 50
	}
	if cfg.WarmupCycles <= 0 {
		cfg.WarmupCycles = 2
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}

	// Trial-invariant setup, hoisted out of the trial loop: the
	// compiled kernel (Base/Span give each arc's sampled weight as
	// Base + u·Span with a single uniform draw), the phase evaluation
	// order, and the per-synchronizer phase openings. All campaign
	// buffers come from a pooled arena (see campaignScratch for the
	// reuse-safety argument); putCampaign runs after wg.Wait, so no
	// worker can still hold a buffer when it returns to the pool.
	rec := obs.From(ctx)
	sc := getCampaign()
	defer putCampaign(sc)
	if sc.work != nil {
		rec.Add(obs.ScratchReuses, 1)
	}
	l := c.L()
	kn := ov.Kernel(core.Options{})
	order := ov.Base().PhaseOrder()
	if cap(sc.open0) < l {
		sc.open0 = make([]float64, l)
	}
	open0 := sc.open0[:l]
	for i := 0; i < l; i++ {
		open0[i] = sched.S[c.Sync(i).Phase]
	}

	// One sub-seed per trial, drawn from the caller's rng in trial
	// order — the only rng use, so results are scheduling-independent.
	if cap(sc.seeds) < cfg.Trials {
		sc.seeds = make([]int64, cfg.Trials)
	}
	seeds := sc.seeds[:cfg.Trials]
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	if cap(sc.partials) < workers {
		sc.partials = make([]MCResult, workers)
	}
	partials := sc.partials[:workers]
	if cap(sc.work) < workers*2*l {
		sc.work = make([]float64, workers*2*l)
	}
	work := sc.work[:workers*2*l]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		partials[w] = MCResult{WorstSlack: math.Inf(1)}
		wg.Add(1)
		prev := work[w*2*l : w*2*l+l : w*2*l+l]
		cur := work[w*2*l+l : (w+1)*2*l : (w+1)*2*l]
		go func(out *MCResult, prev, cur []float64) {
			defer wg.Done()
			for ctx.Err() == nil {
				t := int(next.Add(1)) - 1
				if t >= cfg.Trials {
					return
				}
				trng := trialRNG(seeds[t])
				mcTrial(ctx, c, kn, sched, cfg, order, open0, &trng, prev, cur, rec, out)
			}
		}(&partials[w], prev, cur)
	}
	wg.Wait()

	res := &MCResult{WorstSlack: math.Inf(1)}
	for _, p := range partials {
		res.Trials += p.Trials
		res.FailingTrials += p.FailingTrials
		res.TotalViolations += p.TotalViolations
		if p.WorstSlack < res.WorstSlack {
			res.WorstSlack = p.WorstSlack
		}
	}
	return res, ctx.Err()
}

// mcTrial runs one randomized trial on the compiled kernel, merging
// its summary into out only when the trial completes (a cancelled
// trial leaves out untouched). The context is polled once per cycle.
func mcTrial(ctx context.Context, c *core.Circuit, kn *core.Kernel, sched *core.Schedule, cfg MCConfig,
	order []int, open0 []float64, trng *trialRNG, prev, cur []float64, rec *obs.Rec, out *MCResult) {
	failed := false
	worst := math.Inf(1)
	viol := 0
	for i := range prev {
		prev[i] = open0[i] - sched.Tc // cycle -1 cold start
	}
	for n := 0; n < cfg.Cycles; n++ {
		if ctx.Err() != nil {
			return
		}
		rec.Add(obs.SimCycles, 1)
		for _, i := range order {
			open := open0[i] + float64(n)*sched.Tc
			// Sampled arrival: like kn.Arrive, but each arc's weight is
			// drawn as Base + u·Span (uniform in [DQ+MinDelay, DQ+Delay])
			// and the source departure comes from this cycle or the
			// previous one per the C matrix (absolute time, no shift).
			arr := math.Inf(-1)
			for a := kn.Start[i]; a < kn.Start[i+1]; a++ {
				d := cur[kn.Src[a]]
				if kn.PrevCycle[a] {
					d = prev[kn.Src[a]]
				}
				if v := d + kn.Base[a] + trng.float64()*kn.Span[a]; v > arr {
					arr = v
				}
			}
			s := c.Sync(i)
			switch s.Kind {
			case core.Latch:
				cur[i] = math.Max(open, arr)
				if n >= cfg.WarmupCycles {
					slack := open + sched.T[s.Phase] - s.Setup - cur[i]
					if slack < worst {
						worst = slack
					}
					if slack < -core.Eps {
						viol++
						failed = true
					}
				}
			case core.FlipFlop:
				cur[i] = open
				if n >= cfg.WarmupCycles && !math.IsInf(arr, -1) {
					slack := open - s.Setup - arr
					if slack < worst {
						worst = slack
					}
					if slack < -core.Eps {
						viol++
						failed = true
					}
				}
			}
		}
		prev, cur = cur, prev
	}
	out.Trials++
	out.TotalViolations += viol
	if failed {
		out.FailingTrials++
	}
	if worst < out.WorstSlack {
		out.WorstSlack = worst
	}
	rec.Add(obs.Trials, 1)
}

// trialRNG is a splitmix64 PRNG used for the per-trial sub-streams.
// Unlike rand.NewSource — which seeds a 607-word lagged-Fibonacci
// state, a cost that would dominate small-circuit trials — seeding is
// free (the seed IS the state), and every draw is a few arithmetic
// ops with no interface dispatch.
type trialRNG uint64

func (r *trialRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 draws uniformly from [0, 1).
func (r *trialRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
