package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/parse"
	"mintc/internal/verify"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, which keeps one slow process start or GC out of the number.
const setupReps = 3

// repeatSetup runs setup setupReps times and keeps the last result,
// handing every earlier one to drop; it returns the median set-up time.
func repeatSetup[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	times := make([]float64, setupReps)
	for i := range times {
		t0 := time.Now()
		next, err := setup()
		times[i] = time.Since(t0).Seconds()
		if i > 0 {
			drop(last)
		}
		if err != nil {
			var zero T
			return zero, 0, err
		}
		last = next
	}
	return last, median(times), nil
}

// relTol is how closely an answer must match its reference.
const relTol = 1e-9

func sameTc(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// circuitInput is one workload circuit as the harness hands it to the
// program: .smo text, plus gen's analytic optimum (0 when unknown).
type circuitInput struct {
	name    string
	text    string
	optimal float64
}

// seededInputs renders the benchmarks as .smo text. Every rand-*
// circuit is first rescaled in time by one seeded factor in [0.95,
// 1.05], so a claim can be re-checked on an instance no one tuned
// against. All of its times scale together — path delays, setup, D→Q
// and hold — which scales the optimum and every LP iterate by the same
// factor: the answers change with the seed, the work does not, and a
// metric's spread across seeds stays the machine's.
func seededInputs(seed int64, bs []gen.Benchmark) ([]circuitInput, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]circuitInput, len(bs))
	for i, b := range bs {
		c := b.Circuit
		if strings.HasPrefix(b.Name, "rand-") {
			c = scaleTimes(c, 0.95+0.1*rng.Float64())
		}
		var sb strings.Builder
		if err := parse.WriteCircuit(&sb, c); err != nil {
			return nil, fmt.Errorf("render %s: %w", b.Name, err)
		}
		out[i] = circuitInput{name: b.Name, text: sb.String(), optimal: b.OptimalTc}
	}
	return out, nil
}

// scaleTimes returns a copy of c with every time multiplied by f.
func scaleTimes(c *core.Circuit, f float64) *core.Circuit {
	out := core.NewCircuit(c.K())
	for p := 0; p < c.K(); p++ {
		out.SetPhaseName(p, c.PhaseName(p))
	}
	for _, s := range c.Syncs() {
		s.Setup *= f
		s.DQ *= f
		s.Hold *= f
		out.AddSync(s)
	}
	for _, p := range c.Paths() {
		p.Delay *= f
		p.MinDelay *= f
		out.AddPathFull(p)
	}
	return out
}

// solveOp is one timed operation: .smo text → parse → certified solve.
type solveOp struct {
	circuit      int
	parse, solve time.Duration
	tc           float64
	cert         *verify.Certificate
	stats        obs.Stats
	err          error
}

func (op solveOp) latencyMs() float64 { return ms(op.parse + op.solve) }

// solveOnce runs one operation the way the CLI does: no session, a
// fresh parse, the paper's MLP engine behind the certifying supervisor.
func solveOnce(tr *tracer, id int64, ci int, in circuitInput) solveOp {
	t0 := time.Now()
	c, err := parse.CircuitString(in.text)
	t1 := time.Now()
	op := solveOp{circuit: ci, parse: t1.Sub(t0), err: err}
	end := t1
	if err == nil {
		var res *engine.Result
		res, op.err = engine.SolveCertified(context.Background(), "mlp", c, engine.Options{}, engine.Policy{})
		end = time.Now()
		op.solve = end.Sub(t1)
		op.tc, op.cert, op.stats = res.Tc, res.Certificate, res.Stats
	}
	if tr != nil {
		root := tr.add(-1, id, "op", in.name, t0, end)
		tr.add(root, id, "parse", "", t0, t1)
		tr.add(root, id, "solve", "", t1, end)
	}
	return op
}

// runInproc is the closed loop shared by cli-suite and scale-decomp:
// whole rounds over every circuit, each round in a seeded order, until
// the window has passed. tailP is the percentile client.tail_ms reads.
func runInproc(cfg runConfig, set func() []gen.Benchmark, tailP float64) (*outcome, error) {
	inputs, setupS, err := repeatSetup(func() ([]circuitInput, error) { return seededInputs(cfg.seed, set()) }, func([]circuitInput) {})
	if err != nil {
		return nil, err
	}
	runtime.GC() // the set-up's garbage is not the window's
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	rng := rand.New(rand.NewSource(cfg.seed))
	var ops []solveOp
	start := time.Now()
	for time.Since(start) < cfg.window {
		for _, ci := range rng.Perm(len(inputs)) {
			ops = append(ops, solveOnce(cfg.tracer, int64(len(ops)), ci, inputs[ci]))
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem1)
	rss := maxRSSMB()

	failed, err := checkSolves(inputs, ops)
	if err != nil {
		return nil, err
	}

	groups := make([][]float64, len(inputs))
	var sum obs.Stats
	var parseNs, solveNs, stageNs, textBytes int64
	for i, op := range ops {
		lat := op.latencyMs()
		if failed[i] {
			lat = math.Inf(1)
		}
		groups[op.circuit] = append(groups[op.circuit], lat)
		addStats(&sum, op.stats, 1)
		parseNs += int64(op.parse)
		solveNs += int64(op.solve)
		stageNs += solveStagesNs(op.stats)
		textBytes += int64(len(inputs[op.circuit].text))
	}
	p50s := make([]float64, len(groups))
	for i, g := range groups {
		p50s[i] = median(g)
	}
	p50 := geomean(p50s)
	ratio, pooled := tailRatio(groups, tailP)
	n := len(ops)

	o := &outcome{attempted: int64(n), failed: int64(countTrue(failed))}
	o.e2e = values{
		"setup_s":          setupS,
		"peak_rss_mb":      rss,
		"op_p25_ms":        groupPercentile(groups, typicalP),
		"throughput_per_s": float64(n) / elapsed.Seconds(),
	}
	o.notes = append(o.notes, fmt.Sprintf("%d rounds over %d circuits in %.1fs; median %.4g ms, tail %.4g ms: the %s, each op relative to its circuit's median",
		n/len(inputs), len(inputs), elapsed.Seconds(), p50, p50*ratio, tailNote(tailP, pooled)),
		fmt.Sprintf("of op time, parse takes %.1f%%, the stages the solve returned %.1f%%, the rest of the engine (engine.other_ms) %.1f%%",
			pctOf(parseNs, parseNs+solveNs), pctOf(stageNs, parseNs+solveNs), pctOf(solveNs-stageNs, parseNs+solveNs)))
	o.layer = layerValues(sum, n)
	o.layer["client.p50_ms"] = p50
	o.layer["client.tail_ms"] = p50 * ratio
	o.layer["parse_ms"] = float64(parseNs) / 1e6 / float64(n)
	o.layer["parse_mb_per_s"] = float64(textBytes) / (1 << 20) / (float64(parseNs) / 1e9)
	o.layer["engine.other_ms"] = float64(solveNs-stageNs) / 1e6 / float64(n)
	o.layer["alloc_mb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / float64(n)
	o.layer["gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	for i, in := range inputs {
		o.layer["circuit."+in.name+".p50_ms"] = p50s[i]
	}
	return o, nil
}

func pctOf(part, whole int64) float64 { return 100 * float64(part) / float64(whole) }

// checkSolves marks the operations whose answer failed, was not
// certified optimal, or differs from the reference: gen's analytic
// optimum where one exists, otherwise the independent min-cycle-ratio
// engine on the same circuit. It runs after the window, untimed.
func checkSolves(inputs []circuitInput, ops []solveOp) ([]bool, error) {
	ref := make([]float64, len(inputs))
	for i, in := range inputs {
		ref[i] = in.optimal
		if ref[i] > 0 {
			continue
		}
		c, err := parse.CircuitString(in.text)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", in.name, err)
		}
		r, err := mcr.Solve(c, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", in.name, err)
		}
		ref[i] = r.Tc
	}
	failed := make([]bool, len(ops))
	for i, op := range ops {
		failed[i] = op.err != nil || !op.cert.Certified() || op.cert.Kind != "optimal" || !sameTc(op.tc, ref[op.circuit])
	}
	return failed, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// maxRSSMB is this process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cliSuiteSet() []gen.Benchmark { return append(gen.Suite(), gen.XLarge()...) }

func scaleDecompSet() []gen.Benchmark { return append(gen.Huge(), gen.XXL()...) }
