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
// HTTP/JSON. Both run every request through one pipeline
// (serveRequest) over one method table (handlers.go); they differ only
// in the responder that writes the answer.
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
	doneCh   chan struct{} // closed when drain completes (state drained)
	doneOnce sync.Once
	// drainCtx is cancelled when drain begins: the idle sweep stops and
	// binary connections waiting for a request wake (readFrame).
	drainCtx   context.Context
	startDrain context.CancelFunc
	// abortCtx is cancelled at the drain deadline: streams bail at
	// their next record, and no stream write outlives abortBy (unix
	// ns, stored before the cancel).
	abortCtx context.Context
	abort    context.CancelFunc
	abortBy  atomic.Int64

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
		doneCh:    make(chan struct{}),
		sweepStop: make(chan struct{}),
	}
	s.drainCtx, s.startDrain = context.WithCancel(context.Background())
	s.abortCtx, s.abort = context.WithCancel(context.Background())
	s.mux = s.buildMux()
	if cfg.IdleTTL > 0 {
		go s.sweepLoop()
	}
	return s
}

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
	for _, m := range methods {
		mux.HandleFunc(m.route, s.serveHTTP(m.name))
	}
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
		case <-s.drainCtx.Done():
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

// responder is one transport's side of the request pipeline: where the
// request body comes from and how each outcome reaches the client.
// httpResponder (this file) writes JSON and NDJSON, binResponder
// (proto.go) length-prefixed frames.
type responder interface {
	body() ([]byte, error)
	// result writes a unary method's encoded result.
	result(b []byte)
	// open starts a stream, record writes one encoded record, and
	// close ends a stream that completed.
	open()
	record(b []byte) error
	close()
	// fail writes an error with its status: the whole response before
	// a stream opens, a final in-band record or frame after.
	fail(status int, err error)
	// setWriteDeadline moves the deadline of the response's writes,
	// the one in progress included; safe to call from another
	// goroutine while a write blocks.
	setWriteDeadline(t time.Time) error
}

// armWrite sets the deadline of a write about to start: the
// slow-client budget, cut to abortBy once the drain deadline has
// passed. The abort is checked after the set, not before: an abort
// whose cut (serveRequest) lands just before the set is undone by it,
// and the check then redoes the cut.
func (s *Server) armWrite(set func(time.Time) error) {
	d := time.Now().Add(s.cfg.WriteTimeout)
	_ = set(d)
	if s.abortCtx.Err() != nil {
		if by := time.Unix(0, s.abortBy.Load()); by.Before(d) {
			_ = set(by)
		}
	}
}

// serveRequest is the one request pipeline both protocols run: the
// drain gate, admission, the deadline context, panic isolation, the
// serve.handler fault site, dispatch through the method table, and
// the mapping of each outcome to its status and counters.
func (s *Server) serveRequest(parent context.Context, name string, deadlineMs int64, out responder) {
	s.counters.requests.Add(1)
	if !s.beginRequest() {
		s.counters.drainRejects.Add(1)
		s.fail(out, ErrDraining)
		return
	}
	defer s.endRequest()
	if ok, retry := s.adm.Admit(); !ok {
		s.fail(out, &statusError{http.StatusTooManyRequests, retry,
			fmt.Errorf("serve: overloaded, retry after %v", retry.Round(time.Millisecond))})
		return
	}
	defer s.adm.Release()
	ctx, cancel := s.requestCtx(parent, deadlineMs)
	defer cancel()

	// The per-request panic boundary, the serve-layer twin of the
	// engine supervisor's runGuarded: the panic value and stack are
	// logged and counted, the client gets one 500, and the daemon
	// lives. http.ErrAbortHandler is a deliberate abort (a forfeited
	// response write) and goes on to net/http.
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.counters.panicsIsolated.Add(1)
			s.rec.Add(obs.PanicsRecovered, 1)
			s.cfg.Logger.Printf("serve: panic in %q isolated: %v\n%s", name, p, debug.Stack())
			s.fail(out, internalError(fmt.Errorf("serve: internal error in %q", name)))
		}
	}()
	if err := faultinject.Fire("serve.handler"); err != nil {
		s.fail(out, internalError(err))
		return
	}
	body, err := out.body()
	if err != nil {
		s.fail(out, err)
		return
	}
	m := lookupMethod(name)
	if m == nil {
		s.fail(out, badRequest("serve: unknown method %q", name))
		return
	}
	if !m.stream {
		res, err := m.run(s, ctx, body, nil)
		if err != nil {
			s.fail(out, err)
			return
		}
		b, err := json.Marshal(res)
		if err != nil {
			s.fail(out, internalError(errors.New("serve: encode response")))
			return
		}
		out.result(b)
		return
	}

	s.counters.streamsStarted.Add(1)
	out.open()
	// Once the drain deadline passes, a stream does no more work: it
	// ends with the typed drain error at its next record. A write
	// already blocked on a client that stopped reading would hold the
	// handler for up to WriteTimeout, so the abort cuts that write's
	// deadline to abortBy, as armWrite does every later one: the stream
	// ends within Drain's grace either way, and a client that reads
	// still gets the final record.
	cut := make(chan struct{})
	stop := context.AfterFunc(s.abortCtx, func() {
		defer close(cut)
		_ = out.setWriteDeadline(time.Unix(0, s.abortBy.Load()))
	})
	defer func() {
		if !stop() {
			<-cut // the cut runs on its own goroutine; the connection outlives this request
		}
	}()
	_, err = m.run(s, ctx, body, func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return out.record(b)
	})
	switch {
	case err == nil:
		out.close()
	case errors.Is(err, ErrDraining):
		// The typed drain error, in-band: the client learns the stream
		// was cut by shutdown, not by a fault.
		s.counters.streamsDrained.Add(1)
		out.fail(http.StatusServiceUnavailable, ErrDraining)
	default:
		// A deadline, a disconnect or a method error: the stream ends
		// with an error record carrying its status.
		s.counters.streamsAborted.Add(1)
		s.fail(out, err)
	}
}

// fail maps err to its status, counts it and writes it.
func (s *Server) fail(out responder, err error) {
	status := httpStatus(err)
	switch {
	case status >= 500:
		s.counters.errors5xx.Add(1)
	case status >= 400:
		s.counters.errors4xx.Add(1)
	}
	out.fail(status, err)
}

// httpResponder answers one HTTP request: JSON for unary results and
// errors, NDJSON for streams, with a fresh write deadline per record.
type httpResponder struct {
	s         *Server
	w         http.ResponseWriter
	r         *http.Request
	rc        *http.ResponseController
	streaming bool
}

// serveHTTP returns the HTTP handler of one method-table entry.
func (s *Server) serveHTTP(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveRequest(r.Context(), name, headerDeadline(r), &httpResponder{s: s, w: w, r: r})
	}
}

// body reads the bounded request body: an over-limit upload (the
// MaxBytesReader case) is a 413, a malformed or truncated one a 400.
func (h *httpResponder) body() ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(h.w, h.r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &statusError{http.StatusRequestEntityTooLarge, 0, fmt.Errorf("serve: read body: %w", err)}
		}
		return nil, badRequest("serve: read body: %w", err)
	}
	return body, nil
}

func (h *httpResponder) result(b []byte) { h.s.writeBody(h.w, http.StatusOK, b) }

func (h *httpResponder) open() {
	h.streaming = true
	h.rc = http.NewResponseController(h.w)
	h.w.Header().Set("Content-Type", "application/x-ndjson")
	h.w.WriteHeader(http.StatusOK)
}

func (h *httpResponder) record(b []byte) error {
	if err := faultinject.Fire("serve.stream.chunk"); err != nil {
		return err
	}
	if err := faultinject.Fire("serve.write"); err != nil {
		return err
	}
	// Slow-client guard: every record gets a fresh write budget; a
	// client that stops reading fails the write instead of pinning
	// this goroutine until the heat death of the drain.
	h.s.armWrite(h.rc.SetWriteDeadline)
	if _, err := h.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return h.rc.Flush()
}

// close has nothing to write: the stream's last record says done.
func (h *httpResponder) close() {}

func (h *httpResponder) setWriteDeadline(t time.Time) error { return h.rc.SetWriteDeadline(t) }

func (h *httpResponder) fail(status int, err error) {
	b, _ := json.Marshal(errorBody{Error: err.Error(), Draining: errors.Is(err, ErrDraining)}) // a string and a bool always encode
	if h.streaming {
		// Headers are long gone: the error is the final record. A
		// client that is gone simply misses it.
		_ = h.record(b)
		return
	}
	var se *statusError
	switch {
	case errors.As(err, &se) && se.retry > 0:
		h.w.Header().Set("Retry-After", strconv.FormatInt(int64(se.retry/time.Second)+1, 10))
	case errors.Is(err, ErrDraining):
		h.w.Header().Set("Retry-After", "1")
	}
	h.s.writeBody(h.w, status, b)
}

// errorBody is the JSON error envelope of HTTP responses and of
// in-band stream errors.
type errorBody struct {
	Error    string `json:"error"`
	Draining bool   `json:"draining,omitempty"`
}

// writeJSON writes v as one JSON document with its status (/metrics
// and the health probes).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"serve: encode response"}`, http.StatusInternalServerError)
		return
	}
	s.writeBody(w, status, b)
}

// writeBody writes one encoded JSON document with its status.
func (s *Server) writeBody(w http.ResponseWriter, status int, b []byte) {
	if err := faultinject.Fire("serve.write"); err != nil {
		// Injected write failure: the response is forfeited, the
		// request still completes server-side (clients see a reset).
		s.cfg.Logger.Printf("serve: injected write fault: %v", err)
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// httpStatus maps a method error to its HTTP status. Solver-level
// failures (infeasible models, rejected certificates) are the client's
// problem, not the server's: 422, never 5xx.
func httpStatus(err error) int {
	var (
		se *statusError
		br *badRequestError
	)
	switch {
	case errors.As(err, &se):
		return se.status
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

// statusError carries its own status past httpStatus's mapping: the
// pipeline's 413, 429 (with admission's retry hint) and 500 refusals.
type statusError struct {
	status int
	retry  time.Duration
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func internalError(err error) error { return &statusError{http.StatusInternalServerError, 0, err} }

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
// accepting, binary connections waiting for a request get a drain
// frame and close, and in-flight requests get DrainTimeout to finish.
// If any are still running at the deadline, the abort fires — streams
// then terminate with the typed drain error at their next chunk, and a
// stream write still blocked halfway through the grace fails — and one
// more short grace (1–2s) is granted. Returns nil when every request
// has ended, ErrDrainTimeout otherwise. Idempotent; the
// first caller wins. ctx bounds the total wait on top of the
// configured timeouts.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.state.Load() != stateServing {
		s.drainMu.Unlock()
		return nil
	}
	s.state.Store(stateDraining)
	s.startDrain()
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
	// them a moment to notice. A stream can be megabytes ahead of a
	// client that still reads, and its blocked write wakes only once
	// the client has read a good share of that, hence the 1s floor.
	// Writes get half the grace, so a stream blocked on a client that
	// stopped reading gives up its write and still ends inside it.
	grace := min(max(s.cfg.DrainTimeout/4, time.Second), 2*time.Second)
	s.abortBy.Store(time.Now().Add(grace / 2).UnixNano())
	s.abort()
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
	}
	s.startDrain()
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
