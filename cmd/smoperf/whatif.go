package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/parse"
	"mintc/internal/serve"
	"mintc/internal/session"
)

// whatifSessions are the circuits serve-whatif queries: the paper's
// examples, a seeded random circuit and rings up to 512 latches, so a
// request costs from microseconds to tens of milliseconds.
var whatifSessions = []string{"example1-80", "fig1", "gaas-mips", "rand-large", "ring-2x128", "ring-2x512"}

const (
	whatifRate = 500.0 // open-loop queries per second: about 30% of closed-loop capacity
	openRate   = 10.0  // open-loop session opens per second
	poolSize   = 16    // repeated edits per session: the cache-hit share
	conns      = 2     // load goroutines, one connection each
)

// edit is one what-if delay edit, as smod reads it.
type edit struct {
	Path  int     `json:"path"`
	Delay float64 `json:"delay"`
}

// servedCircuit is one session as the harness knows it: the text smod
// was sent and an in-process snapshot of the same text for reference
// answers (parsing the same text gives the same path indices).
type servedCircuit struct {
	name   string
	text   string
	digest string
	cc     *core.Compiled
	pool   []edit
	sched  *core.Schedule // smod's optimal schedule of the unedited circuit
}

// wreq is one what-if request.
type wreq struct {
	method string
	sess   int // -1 for open
	ed     edit
	text   string // open: the circuit copy
	body   []byte
	due    time.Duration // open loop only
}

var methodURL = map[string]string{
	"solve": "/v1/solve", "mintc": "/v1/mintc", "checktc": "/v1/checktc",
	"reoptimize": "/v1/reoptimize", "open": "/v1/sessions",
}

// wres is one request's fate; times are since its phase started.
type wres struct {
	send, done time.Duration
	status     int
	body       []byte
	err        error
}

func (r wres) ok() bool { return r.err == nil && r.status == http.StatusOK }

// whatifEnv is a set-up serve-whatif run.
type whatifEnv struct {
	proc *smodProc
	sess []*servedCircuit
	open []wreq // the open-loop schedule, in due order
}

// benchmarksNamed picks suite and oversized circuits by name.
func benchmarksNamed(names []string) ([]gen.Benchmark, error) {
	all := map[string]gen.Benchmark{}
	for _, b := range append(gen.Suite(), gen.XLarge()...) {
		all[b.Name] = b
	}
	out := make([]gen.Benchmark, len(names))
	for i, n := range names {
		b, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", n)
		}
		out[i] = b
	}
	return out, nil
}

// openServed starts smod and registers the inputs with it, keeping an
// in-process snapshot of each.
func openServed(smod string, inputs []circuitInput) (*smodProc, []*servedCircuit, error) {
	proc, err := startSmod(smod)
	if err != nil {
		return nil, nil, err
	}
	hc := newConn()
	out := make([]*servedCircuit, len(inputs))
	for i, in := range inputs {
		digest, err := openSession(hc, proc.base, in.text)
		if err != nil {
			proc.kill()
			return nil, nil, fmt.Errorf("%s: %w", in.name, err)
		}
		c, err := parse.CircuitString(in.text)
		if err != nil {
			proc.kill()
			return nil, nil, err
		}
		cc, err := c.Freeze()
		if err != nil {
			proc.kill()
			return nil, nil, err
		}
		out[i] = &servedCircuit{name: in.name, text: in.text, digest: digest, cc: cc}
	}
	return proc, out, nil
}

// setupWhatif brings one smod up ready to measure: sessions open, each
// with its repeated-edit pool, base schedule and a warm-up of every
// method (which also computes the sessions' lazily built warm-start
// bases), plus the whole open-loop schedule with its request bodies.
func setupWhatif(cfg runConfig, openDur time.Duration) (*whatifEnv, error) {
	bs, err := benchmarksNamed(whatifSessions)
	if err != nil {
		return nil, err
	}
	inputs, err := seededInputs(cfg.seed, bs)
	if err != nil {
		return nil, err
	}
	proc, sess, err := openServed(cfg.smod, inputs)
	if err != nil {
		return nil, err
	}
	env := &whatifEnv{proc: proc, sess: sess}
	rng := rand.New(rand.NewSource(cfg.seed))
	hc := newConn()
	for _, s := range sess {
		paths := s.cc.Circuit().Paths()
		for j := 0; j < poolSize; j++ {
			p := rng.Intn(len(paths))
			s.pool = append(s.pool, edit{p, paths[p].Delay * (0.8 + 0.4*rng.Float64())})
		}
		var a answer
		if err := env.call(hc, "mintc", map[string]any{"digest": s.digest}, &a); err != nil {
			proc.kill()
			return nil, err
		}
		s.sched = &core.Schedule{Tc: a.Schedule.Tc, S: a.Schedule.S, T: a.Schedule.T}
	}
	for i := range sess {
		for _, m := range []string{"solve", "mintc", "checktc", "reoptimize"} {
			r := env.request(m, i, sess[i].pool[0])
			if err := env.call(hc, m, r, nil); err != nil {
				proc.kill()
				return nil, fmt.Errorf("warm-up %s on %s: %w", m, sess[i].name, err)
			}
		}
	}

	// The open-loop schedule: Poisson queries and, beside them, Poisson
	// opens of freshly perturbed circuit copies — registry writes that
	// push the registry past its 64-session cap into LRU eviction.
	for t := rng.ExpFloat64() / whatifRate; t < openDur.Seconds(); t += rng.ExpFloat64() / whatifRate {
		q := env.next(rng)
		q.due = time.Duration(t * float64(time.Second))
		env.open = append(env.open, q)
	}
	for k, t := 0, rng.ExpFloat64()/openRate; t < openDur.Seconds(); k, t = k+1, t+rng.ExpFloat64()/openRate {
		text, err := perturbedCopy(sess[k%len(sess)], rng)
		if err != nil {
			proc.kill()
			return nil, err
		}
		body, err := json.Marshal(map[string]string{"tenant": "smoperf", "circuit": text})
		if err != nil {
			proc.kill()
			return nil, err
		}
		env.open = append(env.open, wreq{method: "open", sess: -1, text: text, body: body, due: time.Duration(t * float64(time.Second))})
	}
	sort.SliceStable(env.open, func(i, j int) bool { return env.open[i].due < env.open[j].due })
	return env, nil
}

// perturbedCopy renders s with one seeded path delay raised, so the
// copy has a digest smod has not seen.
func perturbedCopy(s *servedCircuit, rng *rand.Rand) (string, error) {
	c := s.cc.Circuit().Clone()
	p := rng.Intn(len(c.Paths()))
	c.SetPathDelay(p, c.Paths()[p].Delay*(1.01+0.1*rng.Float64()))
	var sb strings.Builder
	err := parse.WriteCircuit(&sb, c)
	return sb.String(), err
}

// next draws one query from the mix: 55% certified solves with a fresh
// ±20% edit (session misses), 30% mintc and 10% checktc with an edit
// from the session's pool (hits once seen), 5% reoptimize.
func (env *whatifEnv) next(rng *rand.Rand) wreq {
	u := rng.Float64()
	si := rng.Intn(len(env.sess))
	s := env.sess[si]
	pooled := s.pool[rng.Intn(len(s.pool))]
	switch {
	case u < 0.55:
		paths := s.cc.Circuit().Paths()
		p := rng.Intn(len(paths))
		return env.build("solve", si, edit{p, paths[p].Delay * (0.8 + 0.4*rng.Float64())})
	case u < 0.85:
		return env.build("mintc", si, pooled)
	case u < 0.95:
		return env.build("checktc", si, pooled)
	default:
		return env.build("reoptimize", si, pooled)
	}
}

func (env *whatifEnv) build(method string, si int, ed edit) wreq {
	body, err := json.Marshal(env.request(method, si, ed))
	if err != nil {
		panic(err) // maps of strings, numbers and slices always encode
	}
	return wreq{method: method, sess: si, ed: ed, body: body}
}

// request is the JSON body of one query.
func (env *whatifEnv) request(method string, si int, ed edit) map[string]any {
	s := env.sess[si]
	r := map[string]any{"digest": s.digest}
	switch method {
	case "solve":
		r["edits"], r["certify"] = []edit{ed}, true
	case "mintc":
		r["edits"] = []edit{ed}
	case "checktc":
		r["edits"] = []edit{ed}
		r["schedule"] = map[string]any{"tc": s.sched.Tc, "s": s.sched.S, "t": s.sched.T}
	case "reoptimize":
		r["path"], r["delay"] = ed.Path, ed.Delay
	}
	return r
}

// answer is the union of the response fields the checks read.
type answer struct {
	Tc         float64           `json:"tc"`
	Certified  bool              `json:"certified"`
	Feasible   bool              `json:"feasible"`
	Violations []json.RawMessage `json:"violations"`
	Digest     string            `json:"digest"`
	Schedule   struct {
		Tc float64   `json:"tc"`
		S  []float64 `json:"s"`
		T  []float64 `json:"t"`
	} `json:"schedule"`
}

// call sends one set-up request and decodes its answer.
func (env *whatifEnv) call(hc *http.Client, method string, req map[string]any, a *answer) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, b, err := post(context.Background(), hc, env.proc.base+methodURL[method], body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: %d %s", method, status, b)
	}
	if a == nil {
		return nil
	}
	return json.Unmarshal(b, a)
}

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	Now() time.Duration // since the loop started
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends requests on their schedule however fast answers come
// back: workers senders take requests in due order, and a request whose
// senders are all busy waits. Latency runs from the due time, so a
// stall shows in every request queued behind it; sendAt − due is how
// late the generator ran.
func openLoop(clk clock, due []time.Duration, workers int, send func(worker, i int)) (sendAt, doneAt []time.Duration) {
	sendAt = make([]time.Duration, len(due))
	doneAt = make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				clk.SleepUntil(due[i])
				sendAt[i] = clk.Now()
				send(w, i)
				doneAt[i] = clk.Now()
			}
		}(w)
	}
	wg.Wait()
	return sendAt, doneAt
}

// closedItem is one closed-loop request with its position in the
// seeded sequence.
type closedItem struct {
	seq int
	req wreq
	res wres
}

// closedLoop keeps one request in flight per connection until the
// window ends. Requests are drawn from one seeded sequence, so the
// sequence is the same whichever connection takes each one.
func (env *whatifEnv) closedLoop(hcs []*http.Client, rng *rand.Rand, start time.Time, window time.Duration) []closedItem {
	var mu sync.Mutex
	seq := 0
	take := func() (int, wreq) {
		mu.Lock()
		defer mu.Unlock()
		seq++
		return seq - 1, env.next(rng)
	}
	local := make([][]closedItem, len(hcs))
	var wg sync.WaitGroup
	for w := range hcs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < window {
				i, q := take()
				it := closedItem{seq: i, req: q}
				it.res.send = time.Since(start)
				it.res.status, it.res.body, it.res.err = post(context.Background(), hcs[w], env.proc.base+methodURL[q.method], q.body)
				it.res.done = time.Since(start)
				local[w] = append(local[w], it)
			}
		}(w)
	}
	wg.Wait()
	var all []closedItem
	for _, l := range local {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// runWhatif measures the interactive user: an open loop at a fixed
// rate for half the window (latency from due time, against the 5 ms p99
// objective), then a closed loop on the same connections for the other
// half (capacity; a shorter closed loop sees too few of smod's GC
// cycles to repeat).
func runWhatif(cfg runConfig) (*outcome, error) {
	openDur := cfg.window / 2
	closedDur := cfg.window - openDur
	env, setupS, err := repeatSetup(func() (*whatifEnv, error) { return setupWhatif(cfg, openDur) },
		func(e *whatifEnv) { e.proc.stop() })
	if err != nil {
		return nil, err
	}
	hcs := []*http.Client{newConn(), newConn()}
	m0, err := env.proc.metrics()
	if err != nil {
		env.proc.kill()
		return nil, err
	}

	// Open loop.
	openRes := make([]wres, len(env.open))
	due := make([]time.Duration, len(env.open))
	for i, q := range env.open {
		due[i] = q.due
	}
	openStart := time.Now()
	sendAt, doneAt := openLoop(wallClock{openStart}, due, conns, func(w, i int) {
		q := env.open[i]
		openRes[i].status, openRes[i].body, openRes[i].err = post(context.Background(), hcs[w], env.proc.base+methodURL[q.method], q.body)
	})
	for i := range openRes {
		openRes[i].send, openRes[i].done = sendAt[i], doneAt[i]
	}

	// Closed loop, continuing the seeded sequence on its own stream.
	closedStart := time.Now()
	closed := env.closedLoop(hcs, rand.New(rand.NewSource(cfg.seed+1)), closedStart, closedDur)

	m1, rss, drained, err := env.proc.finish()
	if err != nil {
		return nil, err
	}

	reqs := append([]wreq(nil), env.open...)
	res := append([]wres(nil), openRes...)
	for _, it := range closed {
		reqs = append(reqs, it.req)
		res = append(res, it.res)
	}
	failed, err := env.check(reqs, res)
	if err != nil {
		return nil, err
	}

	o := &outcome{attempted: int64(len(reqs)), failed: int64(countTrue(failed))}
	if !drained {
		o.failed++
		o.notes = append(o.notes, "smod did not log \"drain complete\" on SIGTERM")
	}
	var openLat, late []float64
	kinds := map[string][]float64{}
	for i, q := range env.open {
		lat := ms(openRes[i].done - q.due)
		if failed[i] {
			lat = math.Inf(1)
		}
		openLat = append(openLat, lat)
		late = append(late, ms(sendAt[i]-q.due))
		kind := q.method
		if q.sess >= 0 {
			kind += "." + env.sess[q.sess].name
		}
		kinds[kind] = append(kinds[kind], lat)
	}
	byKind := make([][]float64, 0, len(kinds))
	for _, g := range kinds {
		byKind = append(byKind, g)
	}
	sort.Float64s(openLat)
	sort.Float64s(late)
	okClosed, closedEnd := 0, time.Duration(0)
	for i, it := range closed {
		if !failed[len(env.open)+i] {
			okClosed++
		}
		closedEnd = max(closedEnd, it.res.done)
	}
	o.e2e = values{
		"setup_s":          setupS,
		"peak_rss_mb":      rss,
		"op_p25_ms":        groupPercentile(byKind, typicalP),
		"throughput_per_s": float64(okClosed) / closedEnd.Seconds(),
	}
	o.notes = append(o.notes, fmt.Sprintf("open loop: %d requests at %g/s + %g opens/s over %s, latency from due time: median %.4g ms, tail %.4g ms: the %s; closed loop: %d requests on %d connections over %s",
		len(env.open), whatifRate, openRate, openDur, percentile(openLat, 50), percentile(openLat, 99), tailNote(99, len(openLat)), len(closed), conns, closedDur))

	o.layer = servedLayers(m0, m1, len(reqs))
	o.layer["gen.late_p99_ms"] = percentile(late, 99)
	o.layer["client.p50_ms"] = percentile(openLat, 50)
	o.layer["client.tail_ms"] = percentile(openLat, 99)
	byMethod, bySess := map[string][]float64{}, make([][]float64, len(env.sess))
	for i, r := range res {
		lat := ms(r.done - r.send)
		if failed[i] {
			lat = math.Inf(1)
		}
		byMethod[reqs[i].method] = append(byMethod[reqs[i].method], lat)
		if reqs[i].sess >= 0 {
			bySess[reqs[i].sess] = append(bySess[reqs[i].sess], lat)
		}
	}
	for m, lats := range byMethod {
		o.layer["client."+m+"_p50_ms"] = median(lats)
	}
	for i, s := range env.sess {
		o.layer["circuit."+s.name+".p50_ms"] = median(bySess[i])
	}

	if cfg.tracer != nil {
		env.traceRequests(cfg.tracer, openStart, 0, env.open, openRes)
		env.traceRequests(cfg.tracer, closedStart, int64(len(env.open)), reqs[len(env.open):], res[len(env.open):])
		over, err := env.replay(cfg.tracer, reqs, res, failed)
		if err != nil {
			return nil, err
		}
		o.layer["serve.overhead_us"] = over
	}
	return o, nil
}

// traceRequests records each request's span, split into the wait for a
// free connection (open loop) and the call itself.
func (env *whatifEnv) traceRequests(tr *tracer, start time.Time, op0 int64, reqs []wreq, res []wres) {
	for i, q := range reqs {
		op := op0 + int64(i)
		from := res[i].send
		if q.due > 0 {
			from = q.due
		}
		group := "open"
		if q.sess >= 0 {
			group = env.sess[q.sess].name
		}
		root := tr.add(-1, op, "request", group, start.Add(from), start.Add(res[i].done))
		if q.due > 0 {
			tr.add(root, op, "wait", "", start.Add(q.due), start.Add(res[i].send))
		}
		tr.add(root, op, "client."+q.method, "", start.Add(res[i].send), start.Add(res[i].done))
	}
}

// replay runs the same request sequence, in order, as direct calls on
// fresh in-process sessions and returns the median over requests of
// client latency minus direct-call time: what transport, admission and
// the registry add to each request.
func (env *whatifEnv) replay(tr *tracer, reqs []wreq, res []wres, failed []bool) (float64, error) {
	direct := make([]*session.Session, len(env.sess))
	for i, s := range env.sess {
		c, err := parse.CircuitString(s.text)
		if err != nil {
			return 0, err
		}
		if direct[i], err = session.Freeze(c, session.Config{CacheErrors: true}); err != nil {
			return 0, err
		}
	}
	ctx := obs.With(context.Background(), obs.New())
	var over []float64
	for i, q := range reqs {
		if failed[i] {
			continue
		}
		t0 := time.Now()
		var err error
		if q.method == "open" {
			var c *core.Circuit
			if c, err = parse.CircuitString(q.text); err == nil {
				if _, _, err = serve.CircuitDigest(c); err == nil {
					_, err = session.Freeze(c, session.Config{CacheErrors: true})
				}
			}
		} else {
			s := direct[q.sess]
			ov := s.Overlay()
			switch q.method {
			case "solve":
				_, err = s.SolveCertified(ctx, "mlp", ov.With(q.ed.Path, q.ed.Delay), engine.Options{}, engine.Policy{})
			case "mintc":
				_, err = s.MinTc(ctx, ov.With(q.ed.Path, q.ed.Delay), core.Options{})
			case "checktc":
				_, err = s.CheckTc(ctx, ov.With(q.ed.Path, q.ed.Delay), env.sess[q.sess].sched, core.Options{})
			case "reoptimize":
				_, _, err = s.Reoptimize(ctx, ov, q.ed.Path, q.ed.Delay, core.Options{})
			}
		}
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", q.method, err)
		}
		tr.add(-1, int64(i), "direct."+q.method, "", t0, t0.Add(d))
		over = append(over, float64(res[i].done-res[i].send-d)/1e3)
	}
	return median(over), nil
}

// refSolver answers "what is the minimum Tc with this one edit?" with
// the independent min-cycle-ratio engine over a session's snapshot.
type refSolver struct {
	s      *mcr.Solver
	delays []float64
	memo   map[edit]float64
}

func newRefSolver(cc *core.Compiled) (*refSolver, error) {
	s, err := mcr.NewSolverOverlay(cc.Overlay(), core.Options{})
	if err != nil {
		return nil, err
	}
	r := &refSolver{s: s, memo: map[edit]float64{}}
	for _, p := range cc.Circuit().Paths() {
		r.delays = append(r.delays, p.Delay)
	}
	return r, nil
}

func (r *refSolver) tc(ed edit) (float64, error) {
	if tc, ok := r.memo[ed]; ok {
		return tc, nil
	}
	r.s.SetDelay(ed.Path, ed.Delay)
	defer r.s.SetDelay(ed.Path, r.delays[ed.Path])
	res, err := r.s.MinTcFromWarmCtx(context.Background(), 0)
	if err != nil {
		return 0, err
	}
	r.memo[ed] = res.Tc
	return res.Tc, nil
}

// check marks every request that failed in transport, got a non-2xx
// status, or answered wrongly: solve, mintc and reoptimize Tc against
// the min-cycle-ratio engine on the same overlay (solves must also come
// back certified), checktc against core.CheckTcOverlay, and opens
// against the registry digest of the posted text.
func (env *whatifEnv) check(reqs []wreq, res []wres) ([]bool, error) {
	refs := make([]*refSolver, len(env.sess))
	for i, s := range env.sess {
		var err error
		if refs[i], err = newRefSolver(s.cc); err != nil {
			return nil, err
		}
	}
	failed := make([]bool, len(reqs))
	for i, q := range reqs {
		var a answer
		if !res[i].ok() || json.Unmarshal(res[i].body, &a) != nil {
			failed[i] = true
			continue
		}
		switch q.method {
		case "open":
			c, err := parse.CircuitString(q.text)
			if err != nil {
				return nil, err
			}
			digest, _, err := serve.CircuitDigest(c)
			if err != nil {
				return nil, err
			}
			failed[i] = a.Digest != digest
		case "checktc":
			s := env.sess[q.sess]
			an, err := core.CheckTcOverlay(s.cc.Overlay().With(q.ed.Path, q.ed.Delay), s.sched, core.Options{})
			if err != nil {
				return nil, err
			}
			failed[i] = a.Feasible != an.Feasible || len(a.Violations) != len(an.Violations)
		default:
			want, err := refs[q.sess].tc(q.ed)
			if err != nil {
				return nil, err
			}
			failed[i] = !sameTc(a.Tc, want) || (q.method == "solve" && !a.Certified)
		}
	}
	return failed, nil
}
