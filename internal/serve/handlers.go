package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/sim"
)

// This file holds the method table and the method implementations the
// HTTP/JSON and binary-framed protocols share: a method name plus a
// JSON body in, a JSON-encodable result (or a stream of them) out.
// The one request pipeline (serveRequest, serve.go) runs admission,
// deadlines and panic isolation before anything here runs.

// handler runs one method. A unary method returns its result; a
// streaming method delivers each NDJSON record / binary frame through
// emit and returns a nil result.
type handler func(s *Server, ctx context.Context, body []byte, emit func(any) error) (any, error)

// method is one entry of the method table.
type method struct {
	name   string // the binary protocol's "method" field
	route  string // the HTTP route pattern
	stream bool
	run    handler
}

// methods declares every served method once; buildMux and the binary
// protocol both read it.
var methods = []method{
	{"sessions", "GET /v1/sessions", false, (*Server).methodSessions},
	{"open", "POST /v1/sessions", false, (*Server).methodOpen},
	{"mintc", "POST /v1/mintc", false, onSession((*Server).methodMinTc)},
	{"checktc", "POST /v1/checktc", false, onSession((*Server).methodCheckTc)},
	{"reoptimize", "POST /v1/reoptimize", false, onSession((*Server).methodReoptimize)},
	{"solve", "POST /v1/solve", false, onSession((*Server).methodSolve)},
	{"sweep", "POST /v1/sweep", true, onSession((*Server).methodSweep)},
	{"montecarlo", "POST /v1/montecarlo", true, onSession((*Server).methodMonteCarlo)},
}

// lookupMethod returns the table entry named name, or nil.
func lookupMethod(name string) *method {
	for i := range methods {
		if methods[i].name == name {
			return &methods[i]
		}
	}
	return nil
}

// streamTick is the cancellation point between stream items: the
// request deadline or client disconnect wins first, then the drain
// abort (closed when the drain deadline expires) surfaces the typed
// drain error.
func (s *Server) streamTick(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.abortCtx.Done():
		return ErrDraining
	default:
		return nil
	}
}

// ---- wire DTOs -------------------------------------------------------

// optionsJSON mirrors the analysis knobs of core.Options on the wire.
type optionsJSON struct {
	MinPhaseWidth float64   `json:"min_phase_width,omitempty"`
	MinSeparation float64   `json:"min_separation,omitempty"`
	Skew          float64   `json:"skew,omitempty"`
	PhaseSkew     []float64 `json:"phase_skew,omitempty"`
	DesignForHold bool      `json:"design_for_hold,omitempty"`
	FixedTc       float64   `json:"fixed_tc,omitempty"`
}

func (o optionsJSON) core() core.Options {
	return core.Options{
		MinPhaseWidth: o.MinPhaseWidth,
		MinSeparation: o.MinSeparation,
		Skew:          o.Skew,
		PhaseSkew:     o.PhaseSkew,
		DesignForHold: o.DesignForHold,
		FixedTc:       o.FixedTc,
	}
}

// scheduleJSON is a clock schedule on the wire.
type scheduleJSON struct {
	Tc float64   `json:"tc"`
	S  []float64 `json:"s"`
	T  []float64 `json:"t"`
}

func scheduleToJSON(sc *core.Schedule) *scheduleJSON {
	if sc == nil {
		return nil
	}
	return &scheduleJSON{Tc: sc.Tc, S: sc.S, T: sc.T}
}

func (sc *scheduleJSON) core(phases int) (*core.Schedule, error) {
	if sc == nil {
		return nil, badRequest("serve: missing schedule")
	}
	if len(sc.S) != phases || len(sc.T) != phases {
		return nil, badRequest("serve: schedule has %d/%d phase entries, circuit has %d phases", len(sc.S), len(sc.T), phases)
	}
	return &core.Schedule{Tc: sc.Tc, S: sc.S, T: sc.T}, nil
}

// editJSON is one what-if delay edit.
type editJSON struct {
	Path  int     `json:"path"`
	Delay float64 `json:"delay"`
}

// requestBase is the part every query shares: which session, which
// edits, which analysis options.
type requestBase struct {
	Digest  string      `json:"digest"`
	Edits   []editJSON  `json:"edits,omitempty"`
	Options optionsJSON `json:"options"`
}

func (b requestBase) base() requestBase { return b }

// validate is the body check a query runs before its session is looked
// up; requestBase has none, request types that do override it.
func (requestBase) validate() error { return nil }

// sessionRequest is a query body: a requestBase plus method fields.
type sessionRequest interface {
	base() requestBase
	validate() error
}

// query is a request resolved against its session: the entry, the
// session's overlay with the request's edits, and the options.
type query struct {
	e    *sessionEntry
	ov   core.DelayOverlay
	opts core.Options
}

// onSession wraps a session query in the preamble every one repeats:
// decode the body into R, validate it, look the session up and
// reference it, and apply the edits as a copy-on-write overlay. The
// reference goes back to the registry when the method returns, which
// is what lets the registry evict without yanking live state.
func onSession[R sessionRequest](fn func(*Server, context.Context, R, query, func(any) error) (any, error)) handler {
	return func(s *Server, ctx context.Context, body []byte, emit func(any) error) (any, error) {
		var req R
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		if err := req.validate(); err != nil {
			return nil, err
		}
		base := req.base()
		if base.Digest == "" {
			return nil, badRequest("serve: missing session digest")
		}
		e, err := s.reg.Get(base.Digest)
		if err != nil {
			return nil, err
		}
		defer s.reg.Put(e)
		ov := e.sess.Overlay()
		for _, ed := range base.Edits {
			if ed.Path < 0 || ed.Path >= e.paths {
				return nil, badRequest("serve: edit path %d out of range [0,%d)", ed.Path, e.paths)
			}
			if ed.Delay < 0 || math.IsNaN(ed.Delay) || math.IsInf(ed.Delay, 0) {
				return nil, badRequest("serve: edit delay %g must be finite and nonnegative", ed.Delay)
			}
			ov = ov.With(ed.Path, ed.Delay)
		}
		e.queries.Add(1)
		return fn(s, ctx, req, query{e, ov, base.Options.core()}, emit)
	}
}

func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("serve: decode request: %v", err)
	}
	return nil
}

// ---- open / sessions -------------------------------------------------

type openRequest struct {
	Tenant  string `json:"tenant"`
	Circuit string `json:"circuit"` // .smo text
}

type openResponse struct {
	Digest  string `json:"digest"`
	Latches int    `json:"latches"`
	Phases  int    `json:"phases"`
	Paths   int    `json:"paths"`
}

func (s *Server) methodOpen(_ context.Context, body []byte, _ func(any) error) (any, error) {
	var req openRequest
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	if req.Circuit == "" {
		return nil, badRequest("serve: missing circuit text")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	e, err := s.reg.Open(req.Tenant, req.Circuit)
	if err != nil {
		if strings.Contains(err.Error(), "parse circuit") {
			return nil, badRequest("%v", err)
		}
		return nil, err
	}
	defer s.reg.Put(e)
	return openResponse{Digest: e.digest, Latches: e.latches, Phases: e.phases, Paths: e.paths}, nil
}

func (s *Server) methodSessions(context.Context, []byte, func(any) error) (any, error) {
	infos := s.reg.List()
	return map[string]any{"sessions": infos, "count": len(infos)}, nil
}

// ---- mintc -----------------------------------------------------------

type minTcResponse struct {
	Tc               float64       `json:"tc"`
	Schedule         *scheduleJSON `json:"schedule"`
	UpdateIterations int           `json:"update_iterations"`
	Pivots           int           `json:"pivots"`
}

func (s *Server) methodMinTc(ctx context.Context, _ requestBase, q query, _ func(any) error) (any, error) {
	res, err := q.e.sess.MinTc(ctx, q.ov, q.opts)
	if err != nil {
		return nil, err
	}
	return minTcResponse{
		Tc:               res.Schedule.Tc,
		Schedule:         scheduleToJSON(res.Schedule),
		UpdateIterations: res.UpdateIterations,
		Pivots:           res.Pivots,
	}, nil
}

// ---- checktc ---------------------------------------------------------

type checkTcRequest struct {
	requestBase
	Schedule *scheduleJSON `json:"schedule"`
}

type violationJSON struct {
	Kind   string  `json:"kind"`
	Sync   int     `json:"sync"`
	Detail string  `json:"detail"`
	Amount float64 `json:"amount"`
}

type checkTcResponse struct {
	Feasible        bool            `json:"feasible"`
	WorstSetupSlack float64         `json:"worst_setup_slack"`
	Violations      []violationJSON `json:"violations,omitempty"`
	PositiveLoop    []int           `json:"positive_loop,omitempty"`
}

func (s *Server) methodCheckTc(ctx context.Context, req checkTcRequest, q query, _ func(any) error) (any, error) {
	sched, err := req.Schedule.core(q.e.phases)
	if err != nil {
		return nil, err
	}
	an, err := q.e.sess.CheckTc(ctx, q.ov, sched, q.opts)
	if err != nil {
		return nil, err
	}
	resp := checkTcResponse{
		Feasible:        an.Feasible,
		WorstSetupSlack: worstFinite(an.SetupSlack),
		PositiveLoop:    an.PositiveLoop,
	}
	for _, v := range an.Violations {
		resp.Violations = append(resp.Violations, violationJSON{Kind: v.Kind, Sync: v.Sync, Detail: v.Detail, Amount: jsonFinite(v.Amount)})
	}
	return resp, nil
}

// jsonFinite clamps a float for JSON encoding, which has no
// Inf/NaN: an unstable loop's violation amount is +Inf, and one such
// value would fail the whole response's marshal.
func jsonFinite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	default:
		return x
	}
}

// worstFinite returns the minimum finite entry (slacks can be +Inf for
// unconstrained synchronizers and NaN for unchecked ones).
func worstFinite(xs []float64) float64 {
	worst := math.Inf(1)
	for _, x := range xs {
		if !math.IsNaN(x) && x < worst {
			worst = x
		}
	}
	if math.IsInf(worst, 0) {
		return 0
	}
	return worst
}

// ---- reoptimize ------------------------------------------------------

type reoptimizeRequest struct {
	requestBase
	Path  int     `json:"path"`
	Delay float64 `json:"delay"`
}

type reoptimizeResponse struct {
	Tc float64 `json:"tc"`
	// Resolved reports whether the dual shortcut failed and a full
	// (memoized) re-solve ran.
	Resolved bool `json:"resolved"`
}

func (s *Server) methodReoptimize(ctx context.Context, req reoptimizeRequest, q query, _ func(any) error) (any, error) {
	if req.Path < 0 || req.Path >= q.e.paths {
		return nil, badRequest("serve: path %d out of range [0,%d)", req.Path, q.e.paths)
	}
	if req.Delay < 0 || math.IsNaN(req.Delay) || math.IsInf(req.Delay, 0) {
		return nil, badRequest("serve: delay %g must be finite and nonnegative", req.Delay)
	}
	tc, resolved, err := q.e.sess.Reoptimize(ctx, q.ov, req.Path, req.Delay, q.opts)
	if err != nil {
		return nil, err
	}
	return reoptimizeResponse{Tc: tc, Resolved: resolved}, nil
}

// ---- solve -----------------------------------------------------------

type solveRequest struct {
	requestBase
	Engine     string `json:"engine,omitempty"`  // default "mlp"
	Certify    bool   `json:"certify,omitempty"` // route through the supervisor
	NoFallback bool   `json:"no_fallback,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	SimCycles  int    `json:"sim_cycles,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
}

type attemptJSON struct {
	Rung      string `json:"rung"`
	Engine    string `json:"engine"`
	Certified bool   `json:"certified"`
	Rejected  string `json:"rejected,omitempty"`
	Err       string `json:"err,omitempty"`
}

type solveResponse struct {
	Engine    string        `json:"engine"`
	Tc        float64       `json:"tc"`
	Schedule  *scheduleJSON `json:"schedule,omitempty"`
	Certified bool          `json:"certified"`
	// Demoted reports the circuit breaker rerouted this solve off the
	// decomp primary onto its fallback ladder.
	Demoted bool          `json:"demoted,omitempty"`
	Trail   []attemptJSON `json:"trail,omitempty"`
}

// engineName is the requested engine, "mlp" when none is named.
func (r solveRequest) engineName() string {
	if r.Engine == "" {
		return "mlp"
	}
	return r.Engine
}

func (r solveRequest) validate() error {
	if _, ok := engine.Get(r.engineName()); !ok {
		return badRequest("serve: unknown engine %q (have %v)", r.engineName(), engine.Names())
	}
	if r.Trials < 0 || r.SimCycles < 0 {
		return badRequest("serve: trials and sim_cycles must be nonnegative")
	}
	return nil
}

func (s *Server) methodSolve(ctx context.Context, req solveRequest, q query, _ func(any) error) (any, error) {
	name := req.engineName()
	eopts := engine.Options{
		Core:      q.opts,
		Trials:    req.Trials,
		SimCycles: req.SimCycles,
		Seed:      req.Seed,
	}

	// Circuit-breaker demotion: while the decomp primary's answers are
	// being rejected by the verifier, route straight to its (equally
	// certified) fallback ladder instead of burning a doomed solve.
	demoted := name == "decomp" && s.brk.Demoted()

	if !req.Certify {
		callName := name
		if demoted {
			callName = "mcr"
		}
		res, err := q.e.sess.Solve(ctx, callName, q.ov, eopts)
		if err != nil {
			return nil, err
		}
		return solveResponse{Engine: res.Engine, Tc: res.Tc, Schedule: scheduleToJSON(res.Schedule), Demoted: demoted}, nil
	}

	pol := engine.Policy{NoFallback: req.NoFallback}
	if demoted {
		pol.Rungs = []string{"mcr", "mlp", "dense"}
	}
	res, err := q.e.sess.SolveCertified(ctx, name, q.ov, eopts, pol)
	if name == "decomp" && !demoted && ctx.Err() == nil && res != nil && len(res.Trail) > 0 {
		// Feed the breaker the primary rung's outcome. A certified
		// answer on rung 0 (feasible or proven-infeasible) is health;
		// a rejected certificate or solve failure there is a strike.
		s.brk.Record(res.Trail[0].Certified)
	}
	if err != nil {
		return nil, err
	}
	resp := solveResponse{
		Engine:    res.Engine,
		Tc:        res.Tc,
		Schedule:  scheduleToJSON(res.Schedule),
		Certified: res.Certificate != nil,
		Demoted:   demoted,
	}
	for _, a := range res.Trail {
		resp.Trail = append(resp.Trail, attemptJSON{Rung: a.Rung, Engine: a.Engine, Certified: a.Certified, Rejected: a.Rejected, Err: a.Err})
	}
	return resp, nil
}

// ---- sweep (streaming) -----------------------------------------------

type sweepRequest struct {
	requestBase
	Path   int       `json:"path"`
	Values []float64 `json:"values,omitempty"`
	From   float64   `json:"from,omitempty"`
	To     float64   `json:"to,omitempty"`
	Steps  int       `json:"steps,omitempty"`
}

// sweepPoint and sweepPointError are the streamed point records: a
// value's Tc, or why it has none. Sweep points are min-cycle-ratio
// answers no certificate checks, and every record says so.
type sweepPoint struct {
	Value     float64 `json:"value"`
	Tc        float64 `json:"tc"`
	Certified bool    `json:"certified"`
}

type sweepPointError struct {
	Value     float64 `json:"value"`
	Error     string  `json:"error"`
	Certified bool    `json:"certified"`
}

// methodSweep streams the session's decomposed sweep (Session.Sweep):
// one warm min-cycle-ratio walk over the values, each point emitted in
// input order as it lands. Points are not memoized. The deadline, a
// disconnect and the drain abort are checked before every point; any
// of them stops the walk.
func (s *Server) methodSweep(ctx context.Context, req sweepRequest, q query, emit func(any) error) (any, error) {
	if req.Path < 0 || req.Path >= q.e.paths {
		return nil, badRequest("serve: sweep path %d out of range [0,%d)", req.Path, q.e.paths)
	}
	values := req.Values
	if len(values) == 0 {
		if req.Steps < 2 || req.To < req.From {
			return nil, badRequest("serve: sweep needs values, or from <= to with steps >= 2")
		}
		if req.Steps > 100000 {
			return nil, badRequest("serve: sweep steps %d exceeds 100000", req.Steps)
		}
		step := (req.To - req.From) / float64(req.Steps-1)
		values = make([]float64, req.Steps)
		for i := range values {
			values[i] = req.From + float64(i)*step
		}
	}
	err := q.e.sess.Sweep(ctx, q.ov, req.Path, values, q.opts, func(i int, tc float64, err error) error {
		if err := s.streamTick(ctx); err != nil {
			return err
		}
		v := values[i]
		switch {
		case v < 0 || math.IsNaN(v) || math.IsInf(v, 0):
			return emit(sweepPointError{Value: v, Error: "invalid delay (must be finite and nonnegative)"})
		case err != nil:
			return emit(sweepPointError{Value: v, Error: err.Error()})
		}
		return emit(sweepPoint{Value: v, Tc: tc})
	})
	if err != nil {
		return nil, err
	}
	return nil, emit(map[string]any{"done": true, "points": len(values)})
}

// ---- montecarlo (streaming) ------------------------------------------

type monteCarloRequest struct {
	requestBase
	Schedule    *scheduleJSON `json:"schedule,omitempty"` // nil = MinTc-optimal
	Trials      int           `json:"trials,omitempty"`
	Cycles      int           `json:"cycles,omitempty"`
	ChunkTrials int           `json:"chunk_trials,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
}

func (s *Server) methodMonteCarlo(ctx context.Context, req monteCarloRequest, q query, emit func(any) error) (any, error) {
	trials := req.Trials
	if trials <= 0 {
		trials = 200
	}
	if trials > 1000000 {
		return nil, badRequest("serve: trials %d exceeds 1000000", trials)
	}
	chunk := req.ChunkTrials
	if chunk <= 0 {
		chunk = 50
	}

	var sched *core.Schedule
	if req.Schedule != nil {
		var err error
		if sched, err = req.Schedule.core(q.e.phases); err != nil {
			return nil, err
		}
	} else {
		res, err := q.e.sess.MinTc(ctx, q.ov, q.opts)
		if err != nil {
			return nil, err
		}
		sched = res.Schedule
		if err := emit(map[string]any{"schedule": scheduleToJSON(sched)}); err != nil {
			return nil, err
		}
	}

	// The RNG partition is canonical: fixed-size internal batches, each
	// seeded by the absolute trial offset. The campaign's numbers are a
	// pure function of (seed, trials); the client's chunk_trials only
	// sets the streaming granularity, never the results.
	const mcBatchTrials = 64
	agg := sim.MCResult{WorstSlack: math.Inf(1)}
	cur := sim.MCResult{WorstSlack: math.Inf(1)} // accumulates the next emitted chunk
	chunkIdx := 0
	for agg.Trials < trials {
		if err := s.streamTick(ctx); err != nil {
			return nil, err
		}
		n := mcBatchTrials
		if rem := trials - agg.Trials; n > rem {
			n = rem
		}
		rng := rand.New(rand.NewSource(req.Seed + int64(agg.Trials)))
		cfg := sim.MCConfig{Cycles: req.Cycles, Trials: n}
		res, err := sim.RunMonteCarlo(ctx, q.ov, sched, cfg, rng)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("serve: monte-carlo trials %d-%d: %w", agg.Trials, agg.Trials+n, err)
		}
		agg.Trials += res.Trials
		agg.FailingTrials += res.FailingTrials
		agg.TotalViolations += res.TotalViolations
		if res.WorstSlack < agg.WorstSlack {
			agg.WorstSlack = res.WorstSlack
		}
		cur.Trials += res.Trials
		cur.FailingTrials += res.FailingTrials
		cur.TotalViolations += res.TotalViolations
		if res.WorstSlack < cur.WorstSlack {
			cur.WorstSlack = res.WorstSlack
		}
		if cur.Trials >= chunk || agg.Trials >= trials {
			if err := emit(map[string]any{
				"chunk":          chunkIdx,
				"trials":         cur.Trials,
				"failing_trials": cur.FailingTrials,
				"violations":     cur.TotalViolations,
				"worst_slack":    jsonFinite(cur.WorstSlack),
			}); err != nil {
				return nil, err
			}
			chunkIdx++
			cur = sim.MCResult{WorstSlack: math.Inf(1)}
		}
	}
	return nil, emit(map[string]any{
		"done":           true,
		"trials":         agg.Trials,
		"failing_trials": agg.FailingTrials,
		"violations":     agg.TotalViolations,
		"worst_slack":    jsonFinite(agg.WorstSlack),
	})
}
