package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// sweepFamilies are the circuits serve-sweep streams, alternately: the
// 512-latch ring (one LP of ~1000 rows per point) and sixteen
// disconnected 124-latch rings (one ~4000-row LP per point, the shape
// the decomposed solvers would split).
func sweepFamilies() ([]gen.Benchmark, error) {
	ring, err := benchmarksNamed([]string{"ring-2x512"})
	if err != nil {
		return nil, err
	}
	banks := gen.Benchmark{Name: "banks-16x125", Circuit: gen.Banks(16, 124, 1, 2, 30), OptimalTc: gen.BanksOptimalTc(16, 1, 2, 30)}
	return append(ring, banks), nil
}

const sweepPoints = 32

// sweepReq is one streamed sweep: sweepPoints evenly spaced delays for
// one path of one family.
type sweepReq struct {
	family   int
	path     int
	from, to float64
}

// sweepPoint is one streamed point: its Tc, or the error smod reported
// for it.
type sweepPoint struct {
	Value float64
	Tc    float64
	Error string
	at    time.Time
}

// sweepRecord is one NDJSON line: a point (value set), the closing
// record (done), or a stream-level error (neither).
type sweepRecord struct {
	Value *float64 `json:"value"`
	Tc    float64  `json:"tc"`
	Error string   `json:"error"`
	Done  bool     `json:"done"`
}

// sweepRun is one sweep's fate.
type sweepRun struct {
	req    sweepReq
	send   time.Time
	end    time.Time
	points []sweepPoint // value records only
	done   bool         // the stream's closing record arrived
	cut    bool         // the window ended mid-stream
	err    error        // transport, status or stream error
}

func (r *sweepRun) failed() bool { return r.err != nil || (!r.done && !r.cut) }

// sweepEnv is a set-up serve-sweep run.
type sweepEnv struct {
	proc *smodProc
	sess []*servedCircuit
}

// setupSweep starts smod with both families open and warms each with a
// two-point sweep, which builds the sessions' warm-start bases.
func setupSweep(cfg runConfig) (sweepEnv, error) {
	fam, err := sweepFamilies()
	if err != nil {
		return sweepEnv{}, err
	}
	inputs, err := seededInputs(cfg.seed, fam)
	if err != nil {
		return sweepEnv{}, err
	}
	proc, sess, err := openServed(cfg.smod, inputs)
	if err != nil {
		return sweepEnv{}, err
	}
	hc := newConn()
	for i, s := range sess {
		d := s.cc.Circuit().Paths()[0].Delay
		r := sweepOnce(context.Background(), hc, proc.base, s, sweepReq{i, 0, d, 1.1 * d}, 2)
		if r.failed() {
			proc.kill()
			return sweepEnv{}, fmt.Errorf("warm-up sweep on %s: %v", s.name, r.err)
		}
	}
	return sweepEnv{proc, sess}, nil
}

// longestPaths returns the indices of the paths of maximum delay.
func longestPaths(paths []core.Path) []int {
	var out []int
	longest := 0.0
	for i, p := range paths {
		switch {
		case p.Delay > longest:
			out, longest = []int{i}, p.Delay
		case p.Delay == longest:
			out = append(out, i)
		}
	}
	return out
}

// sweepOnce streams one sweep and records when each point arrived.
func sweepOnce(ctx context.Context, hc *http.Client, base string, s *servedCircuit, q sweepReq, steps int) *sweepRun {
	run := &sweepRun{req: q}
	body, err := json.Marshal(map[string]any{"digest": s.digest, "path": q.path, "from": q.from, "to": q.to, "steps": steps})
	if err != nil {
		run.err = err
		return run
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", strings.NewReader(string(body)))
	if err != nil {
		run.err = err
		return run
	}
	run.send = time.Now()
	defer func() { run.end = time.Now() }()
	resp, err := hc.Do(req)
	if err != nil {
		run.cut = ctx.Err() != nil
		if !run.cut {
			run.err = err
		}
		return run
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		run.err = fmt.Errorf("sweep: %s", resp.Status)
		return run
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		at := time.Now()
		var rec sweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			run.err = err
			return run
		}
		switch {
		case rec.Done:
			run.done = true
		case rec.Value == nil:
			run.err = fmt.Errorf("sweep stream: %s", rec.Error)
		default:
			run.points = append(run.points, sweepPoint{Value: *rec.Value, Tc: rec.Tc, Error: rec.Error, at: at})
		}
	}
	if err := sc.Err(); err != nil {
		run.cut = ctx.Err() != nil
		if !run.cut {
			run.err = err
		}
	}
	return run
}

// runSweep measures the streamed-sweep route: two connections in a
// closed loop, each alternating the two families, every sweep a seeded
// path and a seeded delay range. Sweeps still streaming when the window
// ends are cut off; their points so far count.
func runSweep(cfg runConfig) (*outcome, error) {
	env, setupS, err := repeatSetup(func() (sweepEnv, error) { return setupSweep(cfg) }, func(e sweepEnv) { e.proc.stop() })
	if err != nil {
		return nil, err
	}
	proc, sess := env.proc, env.sess
	m0, err := proc.metrics()
	if err != nil {
		proc.kill()
		return nil, err
	}

	// A designer sweeps a delay on the critical loop: the longest paths
	// (every path of the uniform ring, the binding bank's ring among the
	// banks). Those paths are alike, so the seed moves the answers and
	// not the work.
	critical := make([][]int, len(sess))
	for i, s := range sess {
		critical[i] = longestPaths(s.cc.Circuit().Paths())
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var mu sync.Mutex
	draw := func(family int) sweepReq {
		mu.Lock()
		defer mu.Unlock()
		p := critical[family][rng.Intn(len(critical[family]))]
		d := sess[family].cc.Circuit().Paths()[p].Delay
		return sweepReq{family, p, d * (0.5 + 0.1*rng.Float64()), d * (1.4 + 0.1*rng.Float64())}
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(cfg.window))
	defer cancel()
	runs := make([][]*sweepRun, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := newConn()
			for k := 0; ctx.Err() == nil; k++ {
				q := draw((w + k) % len(sess))
				runs[w] = append(runs[w], sweepOnce(ctx, hc, proc.base, sess[q.family], q, sweepPoints))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	m1, rss, drained, err := proc.finish()
	if err != nil {
		return nil, err
	}

	var all []*sweepRun
	for _, r := range runs {
		all = append(all, r...)
	}
	refs := make([]*refSolver, len(sess))
	for i, s := range sess {
		if refs[i], err = newRefSolver(s.cc); err != nil {
			return nil, err
		}
	}

	// Every point must match the min-cycle-ratio engine on the same
	// overlay; a failed sweep counts once beside its points.
	o := &outcome{}
	gaps := make([][]float64, len(sess))
	perPoint := make([][]float64, len(sess))
	var sweepMs []float64
	points := 0
	for ri, r := range all {
		fam := r.req.family
		if r.failed() {
			o.attempted++
			o.failed++
		}
		prev := r.send
		for _, p := range r.points {
			o.attempted++
			points++
			want, err := refs[fam].tc(edit{r.req.path, p.Value})
			if err != nil {
				return nil, err
			}
			gap := ms(p.at.Sub(prev))
			if p.Error != "" || !sameTc(p.Tc, want) {
				o.failed++
				gap = math.Inf(1)
			}
			gaps[fam] = append(gaps[fam], gap)
			prev = p.at
		}
		if r.done {
			wall := ms(r.end.Sub(r.send))
			sweepMs = append(sweepMs, wall)
			perPoint[fam] = append(perPoint[fam], wall/float64(len(r.points)))
		}
		if cfg.tracer != nil {
			root := cfg.tracer.add(-1, int64(ri), "sweep", sess[fam].name, r.send, r.end)
			prev := r.send
			for _, p := range r.points {
				cfg.tracer.add(root, int64(ri), "point", "", prev, p.at)
				prev = p.at
			}
		}
	}
	if !drained {
		o.failed++
		o.notes = append(o.notes, "smod did not log \"drain complete\" on SIGTERM")
	}

	p50s := make([]float64, len(gaps))
	for i, g := range gaps {
		p50s[i] = median(g)
	}
	p50 := geomean(p50s)
	ratio, pooled := tailRatio(gaps, 95)
	o.e2e = values{
		"setup_s":          setupS,
		"peak_rss_mb":      rss,
		"op_p25_ms":        groupPercentile(gaps, typicalP),
		"throughput_per_s": float64(points) / elapsed.Seconds(),
	}
	o.notes = append(o.notes, fmt.Sprintf("%d sweeps (%d complete) of %d points on %d connections, %d points streamed in %.1fs; per-point gap median %.4g ms, tail %.4g ms: the %s, each gap relative to its family's median",
		len(all), len(sweepMs), sweepPoints, conns, points, elapsed.Seconds(), p50, p50*ratio, tailNote(95, pooled)))

	o.layer = servedLayers(m0, m1, points)
	o.layer["client.sweep_p50_ms"] = median(sweepMs)
	o.layer["client.p50_ms"] = p50
	o.layer["client.tail_ms"] = p50 * ratio
	for i, s := range sess {
		o.layer["circuit."+s.name+".p50_ms"] = median(perPoint[i])
	}
	return o, nil
}
