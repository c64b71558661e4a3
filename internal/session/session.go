// Package session provides the concurrent analysis layer of the model
// pipeline: a Session owns one frozen circuit snapshot
// (*core.Compiled) and serves timing queries — engine solves, schedule
// checks, incremental reoptimization — from any number of goroutines.
//
// Because the snapshot is immutable and what-if edits travel as
// copy-on-write core.DelayOverlay values, queries need no locking to
// be correct; the session adds the two things immutability alone does
// not give:
//
//   - singleflight deduplication: identical queries arriving while the
//     first is still solving share that one solve instead of running
//     it N times;
//   - bounded memoization: completed results are kept in an LRU cache
//     keyed by (query kind, engine, canonicalized options, overlay
//     digest), so repeated interactive queries — the "wiggle one delay,
//     re-ask" loop — cost a map lookup.
//
// Cached results are shared: callers must treat everything reachable
// from a returned result as read-only, the same contract Compiled
// itself carries. Cache hits, misses, and deduplicated joins are
// reported both into the session's own recorder (Session.Stats) and
// into any obs recorder carried by the query context.
package session

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/engine"
	"mintc/internal/lp"
	"mintc/internal/obs"
)

// Config tunes a session.
type Config struct {
	// CacheSize bounds the number of memoized results (default 256;
	// negative disables memoization — singleflight still applies).
	CacheSize int
	// CacheErrors enables negative caching: failed queries are
	// memoized like successful ones, so a deterministic failure (an
	// infeasible fixed-Tc solve, say) is not recomputed on every ask.
	// Context cancellation / deadline errors and recovered panics are
	// never cached regardless — they describe the call, not the query.
	// Default false: errors are returned to every current waiter but a
	// later identical query retries.
	CacheErrors bool
}

// Typed sentinels for session misuse; match with errors.Is.
var (
	// ErrZeroOverlay is returned when a query is given the zero
	// DelayOverlay value instead of one from Session.Overlay.
	ErrZeroOverlay = errors.New("session: zero overlay (start from Session.Overlay)")
	// ErrSnapshotMismatch is returned when a query's overlay belongs
	// to a different snapshot than the session.
	ErrSnapshotMismatch = errors.New("session: overlay belongs to a different snapshot")
)

// DefaultCacheSize is the memoization bound used when Config.CacheSize
// is zero.
const DefaultCacheSize = 256

// Session serves concurrent timing analyses of one frozen snapshot.
// Create with New; all methods are safe for concurrent use.
type Session struct {
	cc        *core.Compiled
	maxSize   int
	cacheErrs bool
	rec       *obs.Rec

	mu     sync.Mutex
	lru    *list.List // front = most recently used; element value is *entry
	items  map[cacheKey]*list.Element
	flight map[cacheKey]*flight

	// seeds holds, per options shape, the optimal LP basis of the
	// UNEDITED snapshot's solve, computed lazily once and used to
	// warm-start every edited-overlay MinTc. Every overlay over one
	// snapshot yields an LP of identical structure (delays only move
	// RHS values), so the base basis is a valid warm seed for all of
	// them — and because it is a fixed function of (snapshot, options),
	// warm-started results stay independent of query arrival order,
	// preserving the concurrent==serial bit-identity guarantee that a
	// "most recently solved basis" cache would break at degenerate
	// optima (same vertex, different basis, different RHS ranges).
	seedMu sync.Mutex
	seeds  map[cacheKey]*baseSeed

	// decompStates holds, per options shape, the decomposed solver's
	// per-component answer cache, shared by every "decomp" (and
	// above-threshold "mlp") solve of this snapshot: a session that
	// wiggles one delay and re-asks re-solves only the dirty components.
	// Sharing is safe for the same reason the seed is — decomp results
	// are pure functions of (snapshot, options, overlay digest) no
	// matter what the state holds — so query arrival order still cannot
	// change any answer.
	decompMu     sync.Mutex
	decompStates map[cacheKey]*decomp.State
}

// baseSeed computes one options shape's base-overlay basis at most once.
type baseSeed struct {
	once sync.Once
	b    *lp.Basis
}

type entry struct {
	key cacheKey
	val any
	err error // non-nil only under Config.CacheErrors
}

// flight is one in-progress computation other callers can join.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a session over the snapshot.
func New(cc *core.Compiled, cfg Config) *Session {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size < 0 {
		size = 0
	}
	return &Session{
		cc:           cc,
		maxSize:      size,
		cacheErrs:    cfg.CacheErrors,
		rec:          obs.New(),
		lru:          list.New(),
		items:        make(map[cacheKey]*list.Element),
		flight:       make(map[cacheKey]*flight),
		seeds:        make(map[cacheKey]*baseSeed),
		decompStates: make(map[cacheKey]*decomp.State),
	}
}

// Freeze validates and freezes a builder circuit and opens a session
// over the snapshot in one step.
func Freeze(c *core.Circuit, cfg Config) (*Session, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return New(cc, cfg), nil
}

// Compiled returns the snapshot the session serves.
func (s *Session) Compiled() *core.Compiled { return s.cc }

// Overlay returns the empty overlay over the session's snapshot — the
// starting point for what-if edits.
func (s *Session) Overlay() core.DelayOverlay { return s.cc.Overlay() }

// Stats returns the session's lifetime counters (cache hits, misses,
// deduplicated joins).
func (s *Session) Stats() obs.Stats { return s.rec.Snapshot() }

// Solve runs the named engine against the overlay (which must come
// from this session's snapshot), memoized and deduplicated. The
// returned result is shared with other callers of the same query:
// read-only.
func (s *Session) Solve(ctx context.Context, name string, ov core.DelayOverlay, opts engine.Options) (*engine.Result, error) {
	if err := s.checkOverlay(ov); err != nil {
		return nil, err
	}
	// Workers is excluded from the key: Monte-Carlo results are
	// bit-identical for every worker count. Rec is per-call plumbing,
	// not an input.
	key := solveKey(qEngine, name, ov.Digest(), &opts.Core, opts.Schedule)
	key.simCycles = int64(opts.SimCycles)
	key.trials = int64(opts.Trials)
	key.seed = opts.Seed
	rec := obs.From(ctx)
	if v, err, ok := s.lookup(key, rec); ok {
		if err != nil {
			return nil, err
		}
		return v.(*engine.Result), nil
	}
	v, err := s.do(ctx, key, func(ctx context.Context) (any, error) {
		callOpts := opts
		callOpts.Rec = obs.From(ctx)
		if callOpts.DecompState == nil {
			callOpts.DecompState = s.decompState(opts.Core)
		}
		return engine.Solve(ctx, name, ov, callOpts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*engine.Result), nil
}

// SolveCertified runs the named engine through the degradation
// supervisor (engine.SolveCertifiedOverlay): the answer is
// independently certified and failed rungs fall down the engine's
// ladder. Memoized and deduplicated like Solve; a run that ends in an
// error — including one whose certificate was rejected on every rung —
// is never cached unless Config.CacheErrors opts in (and even then,
// cancellations and panics never are). pol.OnRung is per-call plumbing
// and excluded from the cache key; Tolerance, NoFallback and Rungs are
// part of it. For edited overlays the mlp ladder is seeded with the
// base snapshot's optimal basis, so its first rung is the warm-started
// re-solve.
func (s *Session) SolveCertified(ctx context.Context, name string, ov core.DelayOverlay, opts engine.Options, pol engine.Policy) (*engine.Result, error) {
	if err := s.checkOverlay(ov); err != nil {
		return nil, err
	}
	key := solveKey(qCertified, name, ov.Digest(), &opts.Core, opts.Schedule)
	key.simCycles = int64(opts.SimCycles)
	key.trials = int64(opts.Trials)
	key.seed = opts.Seed
	key.tol = math.Float64bits(pol.Tolerance)
	key.noFallback = pol.NoFallback
	h := fnvInt(key.varH, len(pol.Rungs))
	for _, r := range pol.Rungs {
		h = fnvString(h, r)
	}
	key.varH = h
	rec := obs.From(ctx)
	if v, err, ok := s.lookup(key, rec); ok {
		res, _ := v.(*engine.Result)
		return res, err
	}
	v, err := s.do(ctx, key, func(ctx context.Context) (any, error) {
		callOpts := opts
		callOpts.Rec = obs.From(ctx)
		if callOpts.WarmBasis == nil && ov.Digest() != s.cc.Overlay().Digest() {
			callOpts.WarmBasis = s.baseBasis(opts.Core)
		}
		if callOpts.DecompState == nil {
			callOpts.DecompState = s.decompState(opts.Core)
		}
		return engine.SolveCertifiedOverlay(ctx, name, ov, callOpts, pol)
	})
	// Unlike the other queries, a failed certified solve still carries
	// evidence — the trail and, for a certified infeasibility, the
	// validated witness — so the partial result rides along with err.
	res, _ := v.(*engine.Result)
	return res, err
}

// MinTc runs the exact Algorithm MLP against the overlay, memoized and
// deduplicated, returning the full core result (schedule, departures,
// solved LP — the substrate for TryReoptimizeDual). Read-only.
func (s *Session) MinTc(ctx context.Context, ov core.DelayOverlay, opts core.Options) (*core.Result, error) {
	if err := s.checkOverlay(ov); err != nil {
		return nil, err
	}
	key := solveKey(qMinTc, "", ov.Digest(), &opts, nil)
	rec := obs.From(ctx)
	if v, err, ok := s.lookup(key, rec); ok {
		if err != nil {
			return nil, err
		}
		return v.(*core.Result), nil
	}
	v, err := s.do(ctx, key, func(ctx context.Context) (any, error) {
		var warm *lp.Basis
		if ov.Digest() != s.cc.Overlay().Digest() {
			warm = s.baseBasis(opts)
		}
		return core.MinTcOverlayWarmCtx(ctx, ov, opts, warm)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// CheckTc verifies the overlay against a concrete clock schedule,
// memoized and deduplicated. The schedule is part of the cache key;
// like every session input it must not be mutated afterwards.
// Read-only result.
func (s *Session) CheckTc(ctx context.Context, ov core.DelayOverlay, sched *core.Schedule, opts core.Options) (*core.Analysis, error) {
	if err := s.checkOverlay(ov); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, fmt.Errorf("session: CheckTc needs a schedule")
	}
	key := solveKey(qCheckTc, "", ov.Digest(), &opts, sched)
	rec := obs.From(ctx)
	if v, err, ok := s.lookup(key, rec); ok {
		if err != nil {
			return nil, err
		}
		return v.(*core.Analysis), nil
	}
	v, err := s.do(ctx, key, func(context.Context) (any, error) {
		return core.CheckTcOverlay(ov, sched, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Analysis), nil
}

// Reoptimize answers "what is the optimal cycle time if path pathIndex
// had delay newDelay?" against the overlay: it solves (or recalls) the
// overlay's MinTc, tries the pure dual shortcut, and only when the
// optimal basis changes falls back to a full solve of the edited
// overlay — which is itself memoized, so a what-if loop that revisits
// a delay pays nothing. Nothing is mutated anywhere; resolved reports
// whether the fallback ran.
func (s *Session) Reoptimize(ctx context.Context, ov core.DelayOverlay, pathIndex int, newDelay float64, opts core.Options) (tc float64, resolved bool, err error) {
	base, err := s.MinTc(ctx, ov, opts)
	if err != nil {
		return 0, false, err
	}
	tc, ok, err := base.TryReoptimizeDual(pathIndex, newDelay)
	if err != nil {
		return 0, false, err
	}
	if ok {
		return tc, false, nil
	}
	full, err := s.MinTc(ctx, ov.With(pathIndex, newDelay), opts)
	if err != nil {
		return 0, true, err
	}
	return full.Schedule.Tc, true, nil
}

// Sweep walks path pathIndex of the overlay through values with the
// decomposed min-cycle-ratio sweep (decomp.Sweep), handing each value's
// Tc or error to emit in input order; an error from emit stops the
// walk and is returned. Priming goes through the session's per-shape
// decomposed-solver State, so a session's sweeps share their component
// answers with each other and with its decomposed solves. Points are
// neither memoized nor deduplicated — a sweep is a stream, and one
// result per point in the LRU would evict the interactive queries the
// cache is for — and, like MinTc's, they are uncertified. The walk
// runs on one worker, so one sweep holds one core while it streams.
func (s *Session) Sweep(ctx context.Context, ov core.DelayOverlay, pathIndex int, values []float64, opts core.Options, emit func(i int, tc float64, err error) error) error {
	if err := s.checkOverlay(ov); err != nil {
		return err
	}
	return decomp.Sweep(ctx, ov, opts, pathIndex, values, decomp.Config{Workers: 1}, s.decompState(opts), emit)
}

// baseBasis returns the optimal basis of the unedited snapshot's MinTc
// under opts, solving it (cold, at most once per options shape) on
// first use. Deliberately NOT routed through the result cache: the
// seed is internal plumbing and must not perturb the session's
// hit/miss accounting or evict user entries. A failed or non-optimal
// base solve leaves a nil seed and every overlay solve cold-starts.
func (s *Session) baseBasis(opts core.Options) *lp.Basis {
	shape := solveKey(qMinTc, "", 0, &opts, nil)
	s.seedMu.Lock()
	sd, ok := s.seeds[shape]
	if !ok {
		sd = &baseSeed{}
		s.seeds[shape] = sd
	}
	s.seedMu.Unlock()
	sd.once.Do(func() {
		// Background context + no recorder: the seed solve belongs to
		// the session, not to whichever query happened to trigger it —
		// per-query observability must not depend on arrival order.
		if r, err := core.MinTcOverlayCtx(context.Background(), s.cc.Overlay(), opts); err == nil {
			sd.b = r.LPBasis()
		}
	})
	return sd.b
}

// decompState returns the decomposed solver's per-component answer
// cache for one options shape, creating it on first use. Like
// baseBasis, it is internal plumbing outside the result cache. FixedTc
// is normalized out of the shape: the decomposed solver strips it from
// the per-component subproblems (the global coupling pass enforces it),
// so component answers are shared across fixed-Tc variants of the same
// options.
func (s *Session) decompState(opts core.Options) *decomp.State {
	opts.FixedTc = 0
	// The decomposed solver only ever runs min-Tc (schedule objectives
	// bypass it), so the objective never reaches a component subproblem
	// and is normalized out of the shape too.
	opts.Objective = core.Objective{}
	shape := solveKey(qMinTc, "", 0, &opts, nil)
	s.decompMu.Lock()
	defer s.decompMu.Unlock()
	st, ok := s.decompStates[shape]
	if !ok {
		st = decomp.NewState()
		s.decompStates[shape] = st
	}
	return st
}

func (s *Session) checkOverlay(ov core.DelayOverlay) error {
	if !ov.Valid() {
		return ErrZeroOverlay
	}
	if ov.Base() != s.cc {
		return ErrSnapshotMismatch
	}
	return nil
}

// lookup answers key from the cache alone: the zero-allocation fast
// path every query method tries before even constructing its solve
// closure. ok reports a hit (counted in both recorders); a miss counts
// nothing and holds no state — the caller falls through to do, which
// re-checks the cache and the flight table under the same lock, so a
// result that lands between the two checks is still found there.
func (s *Session) lookup(key cacheKey, rec *obs.Rec) (any, error, bool) {
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return nil, nil, false
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*entry)
	v, err := e.val, e.err
	s.mu.Unlock()
	s.rec.Add(obs.SessionHits, 1)
	rec.Add(obs.SessionHits, 1)
	return v, err, true
}

// do answers key from the cache, joins an identical in-flight
// computation, or runs fn — whichever applies. Errors are returned to
// every waiter; by default they are never cached (a later identical
// query retries), and even under Config.CacheErrors a context abort or
// a recovered panic never poisons the LRU. A panic inside fn is
// converted into an error at this boundary — the flight is always
// resolved, so joined waiters cannot hang.
func (s *Session) do(ctx context.Context, key cacheKey, fn func(context.Context) (any, error)) (any, error) {
	rec := obs.From(ctx)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		v, err := e.val, e.err
		s.mu.Unlock()
		s.rec.Add(obs.SessionHits, 1)
		rec.Add(obs.SessionHits, 1)
		return v, err
	}
	if f, ok := s.flight[key]; ok {
		s.mu.Unlock()
		s.rec.Add(obs.SessionDedup, 1)
		rec.Add(obs.SessionDedup, 1)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			// The leader keeps solving (its own context governs it);
			// this waiter just stops waiting.
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flight[key] = f
	s.mu.Unlock()
	s.rec.Add(obs.SessionMisses, 1)
	rec.Add(obs.SessionMisses, 1)

	f.val, f.err = s.runFlight(ctx, rec, fn)
	s.mu.Lock()
	delete(s.flight, key)
	// The error branch additionally requires the leader's own context
	// to still be live: an engine interrupted by a client disconnect may
	// surface the abort as a plain error that wraps neither sentinel, and
	// negative-caching it would poison the query for every later caller.
	// ctx.Err() is the ground truth for "this call was cut short".
	cacheable := f.err == nil || (s.cacheErrs && ctx.Err() == nil && cachableError(f.err))
	if cacheable && s.maxSize > 0 {
		s.items[key] = s.lru.PushFront(&entry{key: key, val: f.val, err: f.err})
		for s.lru.Len() > s.maxSize {
			old := s.lru.Back()
			s.lru.Remove(old)
			delete(s.items, old.Value.(*entry).key)
		}
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// runFlight executes the flight leader's computation with panic
// containment: a panic becomes an *engine.PanicError (stack captured,
// obs.PanicsRecovered counted) instead of unwinding with the session
// lock state inconsistent and the flight unresolved.
func (s *Session) runFlight(ctx context.Context, rec *obs.Rec, fn func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.rec.Add(obs.PanicsRecovered, 1)
			rec.Add(obs.PanicsRecovered, 1)
			err = &engine.PanicError{Engine: "session", Value: p, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx)
}

// cachableError reports whether a failure describes the query itself
// (deterministic, safe to memoize under Config.CacheErrors) rather
// than the particular call (cancellation, deadline, recovered panic).
func cachableError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *engine.PanicError
	return !errors.As(err, &pe)
}

// queryKind discriminates the session's query families inside a
// cacheKey.
type queryKind uint8

const (
	qEngine queryKind = iota + 1
	qCertified
	qMinTc
	qCheckTc
)

// cacheKey is the comparable canonical form of a query — the map key
// of the memoization cache, the flight table, and the warm-seed table.
// A plain value struct (no strings built per query) keeps the cache
// fast path allocation-free: every fixed-size input is inlined
// bit-exactly, and only the variable-length inputs — PhaseSkew, the
// schedule's phase vectors, a certified policy's rung list — fold into
// varH through 64-bit FNV-1a (length-prefixed per field, so no
// concatenation ambiguity; a collision needs two distinct queries
// agreeing on every inline field AND a 1-in-2⁶⁴ hash match).
type cacheKey struct {
	kind   queryKind
	name   string // engine name for qEngine/qCertified; "" otherwise
	digest uint64 // overlay canonical digest

	// core.Options scalars, inlined as exact bit patterns.
	minPhaseWidth, minSeparation, skew, fixedTc uint64
	update                                      int32
	maxUpdateIter                               int32
	designForHold                               bool
	objective                                   int32  // Objective.Kind
	objFixedTc                                  uint64 // Float64bits(Objective.FixedTc)

	// varH folds the variable-length inputs (see type comment).
	varH uint64

	// Engine- and policy-specific scalars (zero for core queries).
	simCycles, trials int64
	seed              int64
	tol               uint64 // Float64bits(Policy.Tolerance)
	noFallback        bool
}

// solveKey canonicalizes the inputs every query shares: the query
// kind, the overlay's canonical digest, every semantically relevant
// core option, and the schedule's exact values when one participates.
// Callers add their engine-specific scalars to the returned value.
func solveKey(kind queryKind, name string, digest uint64, co *core.Options, sched *core.Schedule) cacheKey {
	k := cacheKey{
		kind:          kind,
		name:          name,
		digest:        digest,
		minPhaseWidth: math.Float64bits(co.MinPhaseWidth),
		minSeparation: math.Float64bits(co.MinSeparation),
		skew:          math.Float64bits(co.Skew),
		fixedTc:       math.Float64bits(co.FixedTc),
		update:        int32(co.Update),
		maxUpdateIter: int32(co.MaxUpdateIter),
		designForHold: co.DesignForHold,
		objective:     int32(co.Objective.Kind),
		objFixedTc:    math.Float64bits(co.Objective.FixedTc),
	}
	h := fnvInt(fnvOffset, len(co.PhaseSkew))
	for _, v := range co.PhaseSkew {
		h = fnvU64(h, math.Float64bits(v))
	}
	if sched != nil {
		h = fnvU64(h, math.Float64bits(sched.Tc))
		h = fnvInt(h, len(sched.S))
		for _, v := range sched.S {
			h = fnvU64(h, math.Float64bits(v))
		}
		h = fnvInt(h, len(sched.T))
		for _, v := range sched.T {
			h = fnvU64(h, math.Float64bits(v))
		}
	}
	k.varH = h
	return k
}

// 64-bit FNV-1a, open-coded so key construction stays free of any
// hash.Hash allocation.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func fnvInt(h uint64, v int) uint64 { return fnvU64(h, uint64(v)) }

func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
