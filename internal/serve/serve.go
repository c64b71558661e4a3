// Package serve wraps the session layer in a fault-tolerant network
// daemon: the long-running front door that turns the repository's
// timing engines (MinTc / CheckTc / Reoptimize / certified solves /
// sweeps / Monte-Carlo) into a multi-tenant service.
//
// The session machinery underneath is already concurrency-safe and
// bit-identical under race; what this package adds is everything a
// daemon needs to stay up when clients misbehave and load exceeds
// capacity:
//
//   - a multi-tenant session registry keyed by compiled-snapshot
//     digest, with per-tenant quotas, an LRU cap and idle eviction;
//   - token-bucket admission control with queue-depth load shedding
//     (429 + Retry-After) so overload degrades into fast rejections,
//     never into unbounded queues;
//   - per-request deadlines propagated into the engines' cancellable
//     contexts (the hot loops already poll them);
//   - per-request panic isolation following the engine supervisor's
//     runGuarded pattern — a panic becomes one 500, never a crash;
//   - a circuit breaker demoting the decomp engine to its fallback
//     ladder after repeated verify failures;
//   - streaming (NDJSON / binary-framed) sweep and Monte-Carlo
//     responses with mid-stream cancellation;
//   - graceful drain: stop accepting, finish in-flight work under a
//     drain deadline, hand still-running streams a typed drain error,
//     flush the observability counters.
//
// Two wire protocols share one listener through protocol sniffing: a
// connection opening with the 4-byte magic "SMO1" speaks the
// length-prefixed binary framing (see proto.go); anything else is
// HTTP/JSON.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mintc/internal/faultinject"
	"mintc/internal/obs"
)

// Typed serve-layer failures, matchable with errors.Is across both
// protocols (the HTTP layer maps them to statuses, the binary layer to
// error frames).
var (
	// ErrDraining is returned to work refused or cut short because the
	// server is shutting down: new requests once drain begins, and
	// in-flight streams that outlive the drain deadline.
	ErrDraining = errors.New("serve: draining")
	// ErrDrainTimeout is returned by Drain when in-flight requests were
	// still running after the drain deadline and the abort grace.
	ErrDrainTimeout = errors.New("serve: drain deadline exceeded with requests still in flight")
)

// Server lifecycle states.
const (
	stateServing int32 = iota
	stateDraining
	stateDrained
)

// Config tunes a Server. The zero value serves with sane production
// defaults (documented per field).
type Config struct {
	// MaxSessions caps the registry (LRU eviction beyond it; default 64).
	MaxSessions int
	// TenantQuota caps distinct circuits per tenant (0 = unlimited).
	TenantQuota int
	// IdleTTL evicts sessions idle longer than this (0 = never).
	IdleTTL time.Duration
	// SweepEvery is the idle-eviction period (default 30s; only
	// meaningful with IdleTTL set).
	SweepEvery time.Duration

	// Rate bounds sustained admitted requests per second (0 = no rate
	// limit); Burst is the token-bucket capacity (default max(1,Rate)).
	Rate  float64
	Burst int
	// MaxInflight sheds requests outright once this many are already
	// executing (0 = unlimited). This is the queue-depth ceiling that
	// keeps overload latency bounded.
	MaxInflight int

	// DefaultDeadline bounds requests that name no deadline (default
	// 30s); MaxDeadline clamps client-requested deadlines (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// DrainTimeout is how long Drain waits for in-flight requests
	// before handing streams the typed drain error (default 10s).
	DrainTimeout time.Duration

	// WriteTimeout is the per-write deadline on streamed chunks and
	// binary frames, the slow-client guard (default 15s).
	WriteTimeout time.Duration

	// BreakerThreshold opens the decomp circuit breaker after this many
	// consecutive uncertified primaries (default 3; negative disables).
	// BreakerCooldown is the open duration before a half-open probe
	// (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Logger receives operational log lines (nil = standard logger).
	Logger *log.Logger
	// Now injects a clock for tests (nil = time.Now). It governs the
	// registry, admission and breaker, not request deadlines.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 30 * time.Second
	}
	if c.Burst <= 0 {
		c.Burst = int(math.Max(1, c.Rate))
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 15 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the timing daemon. Create with New; all methods are safe
// for concurrent use.
type Server struct {
	cfg Config
	reg *registry
	adm *admission
	brk *breaker
	rec *obs.Rec // process-lifetime counters, exposed by /metrics

	start time.Time
	mux   *http.ServeMux

	// Drain machinery. state transitions serving → draining → drained
	// exactly once; beginRequest registers in-flight work under drainMu
	// so Drain's state flip and the WaitGroup Add cannot race.
	drainMu  sync.Mutex
	state    atomic.Int32
	inflight sync.WaitGroup
	drainCh  chan struct{} // closed when drain begins (stop accepting)
	abortCh  chan struct{} // closed at the drain deadline (streams bail)
	doneCh   chan struct{} // closed when drain completes (state drained)
	doneOnce sync.Once

	// listeners guards the raw listeners Serve is accepting on, so
	// Drain/Close can stop them.
	lisMu     sync.Mutex
	listeners []net.Listener

	sweepStop chan struct{}
	sweepOnce sync.Once

	counters serverCounters
}

// serverCounters are the serve-layer atomics /metrics reports next to
// the obs snapshot.
type serverCounters struct {
	requests       atomic.Int64 // everything that reached the front door
	drainRejects   atomic.Int64 // refused because draining (503)
	errors4xx      atomic.Int64
	errors5xx      atomic.Int64
	panicsIsolated atomic.Int64
	streamsStarted atomic.Int64
	streamsDrained atomic.Int64 // streams ended by the typed drain error
	streamsAborted atomic.Int64 // streams ended by client disconnect/deadline
	binConns       atomic.Int64
	binFrames      atomic.Int64
}

// New returns a server over a fresh registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		reg:       newRegistry(cfg.MaxSessions, cfg.TenantQuota, cfg.IdleTTL, cfg.Now),
		adm:       newAdmission(cfg.Rate, cfg.Burst, cfg.MaxInflight, cfg.Now),
		brk:       newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
		rec:       obs.New(),
		start:     cfg.Now(),
		drainCh:   make(chan struct{}),
		abortCh:   make(chan struct{}),
		doneCh:    make(chan struct{}),
		sweepStop: make(chan struct{}),
	}
	s.mux = s.buildMux()
	if cfg.IdleTTL > 0 {
		go s.sweepLoop()
	}
	return s
}

// Rec returns the server's process-lifetime obs recorder.
func (s *Server) Rec() *obs.Rec { return s.rec }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.state.Load() != stateServing }

// Handler returns the HTTP handler (also used behind the sniffing
// listener). Exposed so tests can drive the server through
// httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Health and metrics bypass admission and drain gating: they are
	// how orchestrators watch the drain happen.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/sessions", s.unary("sessions"))

	mux.HandleFunc("POST /v1/sessions", s.unary("open"))
	mux.HandleFunc("POST /v1/mintc", s.unary("mintc"))
	mux.HandleFunc("POST /v1/checktc", s.unary("checktc"))
	mux.HandleFunc("POST /v1/reoptimize", s.unary("reoptimize"))
	mux.HandleFunc("POST /v1/solve", s.unary("solve"))
	mux.HandleFunc("POST /v1/sweep", s.stream("sweep"))
	mux.HandleFunc("POST /v1/montecarlo", s.stream("montecarlo"))
	return mux
}

// sweepLoop runs the registry's idle eviction until drain.
func (s *Server) sweepLoop() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.reg.SweepIdle(); n > 0 {
				s.cfg.Logger.Printf("serve: evicted %d idle session(s)", n)
			}
		case <-s.sweepStop:
			return
		case <-s.drainCh:
			return
		}
	}
}

// beginRequest registers one in-flight request, refusing once drain
// has begun. Every true return must be paired with endRequest.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.state.Load() != stateServing {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endRequest() { s.inflight.Done() }

// requestCtx derives the request context: the client's disconnect
// cancellation, the obs recorder, and the effective deadline — the
// client's X-Deadline-Ms (clamped to MaxDeadline) or DefaultDeadline.
func (s *Server) requestCtx(parent context.Context, deadlineMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMs > 0 {
		d = time.Duration(deadlineMs) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	ctx := obs.With(parent, s.rec)
	return context.WithTimeout(ctx, d)
}

// headerDeadline parses the per-request deadline from the
// X-Deadline-Ms header or the deadline_ms query parameter.
func headerDeadline(r *http.Request) int64 {
	v := r.Header.Get("X-Deadline-Ms")
	if v == "" {
		v = r.URL.Query().Get("deadline_ms")
	}
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return ms
}

// maxBodyBytes bounds request bodies (a 100k-latch circuit in .smo
// form is ~3 MB; 64 MB leaves headroom without letting one client
// exhaust memory).
const maxBodyBytes = 64 << 20

// readBody reads the bounded request body. On failure it writes the
// error response — 413 for an over-limit upload (the MaxBytesReader
// case), 400 for a malformed or truncated one — and returns ok=false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("serve: read body: %w", err))
		return nil, false
	}
	return body, true
}

// unary wraps one request/response method in the full robustness
// pipeline: drain gate, admission, deadline, panic isolation.
func (s *Server) unary(method string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.counters.requests.Add(1)
		if !s.beginRequest() {
			s.counters.drainRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		defer s.endRequest()
		if ok, retry := s.adm.Admit(); !ok {
			s.shedResponse(w, retry)
			return
		}
		defer s.adm.Release()
		ctx, cancel := s.requestCtx(r.Context(), headerDeadline(r))
		defer cancel()

		defer s.isolatePanic(w, method)
		if err := faultinject.Fire("serve.handler"); err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		res, err := s.dispatchUnary(ctx, method, body)
		if err != nil {
			s.writeError(w, httpStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, res)
	}
}

// stream wraps one streaming method: same pipeline, NDJSON body, and
// per-chunk write deadlines so a stalled client cannot pin a worker.
// Stream failures after the first chunk are reported in-band as a
// final {"error": ...} record (headers are long gone by then).
func (s *Server) stream(method string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.counters.requests.Add(1)
		if !s.beginRequest() {
			s.counters.drainRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		defer s.endRequest()
		if ok, retry := s.adm.Admit(); !ok {
			s.shedResponse(w, retry)
			return
		}
		defer s.adm.Release()
		ctx, cancel := s.requestCtx(r.Context(), headerDeadline(r))
		defer cancel()

		defer s.isolatePanic(w, method)
		if err := faultinject.Fire("serve.handler"); err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}

		s.counters.streamsStarted.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		emit := func(v any) error {
			if err := faultinject.Fire("serve.stream.chunk"); err != nil {
				return err
			}
			if err := faultinject.Fire("serve.write"); err != nil {
				return err
			}
			// Slow-client guard: every chunk gets a fresh write budget;
			// a client that stops reading fails the write instead of
			// pinning this goroutine until the heat death of the drain.
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(b, '\n')); err != nil {
				return err
			}
			return rc.Flush()
		}

		err := s.dispatchStream(ctx, method, body, emit)
		switch {
		case err == nil:
		case errors.Is(err, ErrDraining):
			// The typed drain error, in-band: the client learns the
			// stream was cut by shutdown, not by a fault.
			s.counters.streamsDrained.Add(1)
			_ = emit(map[string]any{"error": ErrDraining.Error(), "draining": true})
		case ctx.Err() != nil:
			// Client gone or deadline hit: nobody is listening; count it.
			s.counters.streamsAborted.Add(1)
		default:
			s.counters.streamsAborted.Add(1)
			_ = emit(map[string]any{"error": err.Error()})
		}
	}
}

// isolatePanic is the per-request panic boundary, the serve-layer twin
// of the engine supervisor's runGuarded: the panic value and stack are
// logged and counted, the client gets one 500, and the daemon lives.
func (s *Server) isolatePanic(w http.ResponseWriter, method string) {
	if p := recover(); p != nil {
		s.counters.panicsIsolated.Add(1)
		s.rec.Add(obs.PanicsRecovered, 1)
		s.cfg.Logger.Printf("serve: panic in %q isolated: %v\n%s", method, p, debug.Stack())
		// Best effort — if the stream already wrote, this is a no-op.
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: internal error in %q", method))
	}
}

func (s *Server) shedResponse(w http.ResponseWriter, retry time.Duration) {
	secs := int64(retry/time.Second) + 1
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: overloaded, retry after %v", retry.Round(time.Millisecond)))
}

// errorBody is the JSON error envelope of both protocols.
type errorBody struct {
	Error    string `json:"error"`
	Draining bool   `json:"draining,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	switch {
	case status >= 500:
		s.counters.errors5xx.Add(1)
	case status >= 400:
		s.counters.errors4xx.Add(1)
	}
	body := errorBody{Error: err.Error(), Draining: errors.Is(err, ErrDraining)}
	s.writeJSON(w, status, body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := faultinject.Fire("serve.write"); err != nil {
		// Injected write failure: the response is forfeited, the
		// request still completes server-side (clients see a reset).
		s.cfg.Logger.Printf("serve: injected write fault: %v", err)
		panic(http.ErrAbortHandler)
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.counters.errors5xx.Add(1)
		http.Error(w, `{"error":"serve: encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// httpStatus maps a method error to its HTTP status. Solver-level
// failures (infeasible models, rejected certificates) are the client's
// problem, not the server's: 422, never 5xx.
func httpStatus(err error) int {
	var br *badRequestError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is written to a dead socket.
		return 499
	default:
		return http.StatusUnprocessableEntity
	}
}

// badRequestError marks malformed-input failures for the 400 mapping.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &badRequestError{fmt.Errorf(format, args...)}
}

// ListenAndServe listens on addr and serves both protocols until the
// listener closes (Drain/Close do that).
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts on l, sniffing each connection's protocol: binary
// connections are handled inline, everything else goes to the HTTP
// server. Returns nil once the listener closes during drain.
func (s *Server) Serve(l net.Listener) error {
	s.lisMu.Lock()
	s.listeners = append(s.listeners, l)
	s.lisMu.Unlock()

	hl := newChanListener(l.Addr())
	httpSrv := &http.Server{Handler: s.mux}
	go func() {
		_ = httpSrv.Serve(hl)
	}()
	defer func() {
		hl.Close()
		httpSrv.Close()
	}()

	for {
		c, err := l.Accept()
		if err != nil {
			if s.Draining() {
				// Drain closed the listener. The deferred httpSrv.Close()
				// would sever every in-flight connection (active requests
				// and streams included), so hold it back until drain
				// completes: by then in-flight work has either finished or
				// been handed the typed drain error, and Drain's deadlines
				// bound the wait.
				<-s.doneCh
				// A handler that has returned may still have its last
				// bytes (a stream's final record, the chunked trailer)
				// buffered in net/http; Shutdown lets those connections
				// flush and go idle before the deferred Close.
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_ = httpSrv.Shutdown(ctx) // the deadline error only means Close cuts the rest
				cancel()
				return nil
			}
			return err
		}
		go s.dispatchConn(c, hl)
	}
}

// dispatchConn sniffs one accepted connection and routes it.
func (s *Server) dispatchConn(c net.Conn, hl *chanListener) {
	sc, isBinary, err := sniff(c)
	if err != nil {
		c.Close()
		return
	}
	if isBinary {
		s.counters.binConns.Add(1)
		s.serveBinary(sc)
		return
	}
	if !hl.Deliver(sc) {
		sc.Close()
	}
}

// Drain shuts the server down gracefully: readiness flips false, new
// requests are refused with the typed drain error, listeners stop
// accepting, and in-flight requests get DrainTimeout to finish. If any
// are still running at the deadline, the abort channel closes —
// streams then terminate with the typed drain error at their next
// chunk — and one more short grace is granted. Returns nil when
// everything wound down, ErrDrainTimeout otherwise. Idempotent; the
// first caller wins. ctx bounds the total wait on top of the
// configured timeouts.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.state.Load() != stateServing {
		s.drainMu.Unlock()
		return nil
	}
	s.state.Store(stateDraining)
	close(s.drainCh)
	s.drainMu.Unlock()

	s.closeListeners()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()

	drained := func() error {
		s.state.Store(stateDrained)
		s.drainComplete()
		s.flushObs()
		return nil
	}
	select {
	case <-done:
		return drained()
	case <-ctx.Done():
	case <-time.After(s.cfg.DrainTimeout):
	}

	// Deadline passed: cut streams loose with the typed error and give
	// them a moment to notice.
	close(s.abortCh)
	grace := s.cfg.DrainTimeout / 4
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	if grace < 100*time.Millisecond {
		grace = 100 * time.Millisecond
	}
	select {
	case <-done:
		return drained()
	case <-time.After(grace):
		s.state.Store(stateDrained)
		s.drainComplete()
		s.flushObs()
		return fmt.Errorf("%w (%d still running)", ErrDrainTimeout, s.adm.Inflight())
	}
}

// drainComplete signals Serve loops that drain has finished and the
// HTTP server may be torn down. Idempotent (Drain then Close is legal).
func (s *Server) drainComplete() {
	s.doneOnce.Do(func() { close(s.doneCh) })
}

// Close stops the server immediately (tests and error paths; prefer
// Drain). Safe after Drain.
func (s *Server) Close() {
	s.drainMu.Lock()
	if s.state.Load() == stateServing {
		s.state.Store(stateDrained)
		close(s.drainCh)
	}
	s.drainMu.Unlock()
	s.drainComplete()
	s.sweepOnce.Do(func() { close(s.sweepStop) })
	s.closeListeners()
}

func (s *Server) closeListeners() {
	s.lisMu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.lisMu.Unlock()
}

// flushObs logs the final counter snapshot — the drain contract's
// "flush obs counters", so a terminated pod leaves its lifetime
// telemetry in the logs.
func (s *Server) flushObs() {
	m := s.Metrics()
	b, err := json.Marshal(m)
	if err != nil {
		return
	}
	s.cfg.Logger.Printf("serve: drained; final metrics: %s", b)
}
