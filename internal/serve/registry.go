package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mintc/internal/core"
	"mintc/internal/faultinject"
	"mintc/internal/parse"
	"mintc/internal/session"
)

// Registry errors, matchable with errors.Is through the HTTP layer
// (ErrTenantQuota maps to 429, ErrUnknownSession to 404).
var (
	ErrUnknownSession = errors.New("serve: unknown session digest")
	ErrTenantQuota    = errors.New("serve: tenant session quota exceeded")
)

// registry is the multi-tenant session store: each distinct circuit —
// identified by the SHA-256 digest of its canonical .smo rendering —
// gets one compiled snapshot and one session.Session shared by every
// tenant that posted it (sessions are concurrency-safe and results are
// pure functions of the snapshot, so sharing across tenants leaks
// nothing but saves the Freeze and every warm cache). Per-tenant
// quotas bound how many distinct circuits one tenant can hold open,
// a global LRU cap bounds total memory, and an idle TTL reclaims
// sessions nobody has queried lately.
//
// Entries are refcounted: an eviction (LRU overflow or idle sweep)
// only detaches the entry from the table — in-flight requests holding
// a reference keep using their session and release it when done, so an
// eviction can never yank state out from under a running solve.
type registry struct {
	maxSessions int
	tenantQuota int
	idleTTL     time.Duration
	now         func() time.Time

	mu    sync.Mutex
	items map[string]*list.Element // digest → element in lru
	lru   *list.List               // front = most recently used; values are *sessionEntry

	evictions atomic.Int64
	opened    atomic.Int64
}

// sessionEntry is one registered circuit and its serving state.
type sessionEntry struct {
	digest  string
	sess    *session.Session
	latches int
	phases  int
	paths   int

	created  time.Time
	lastUsed time.Time
	queries  atomic.Int64

	// tenants maps each tenant holding this session to its attach time;
	// quota counts entries per tenant, so a shared circuit costs each
	// tenant one slot.
	tenants map[string]time.Time

	refs int // in-flight requests using this entry
}

func newRegistry(maxSessions, tenantQuota int, idleTTL time.Duration, now func() time.Time) *registry {
	if now == nil {
		now = time.Now
	}
	if maxSessions <= 0 {
		maxSessions = 64
	}
	return &registry{
		maxSessions: maxSessions,
		tenantQuota: tenantQuota,
		idleTTL:     idleTTL,
		now:         now,
		items:       make(map[string]*list.Element),
		lru:         list.New(),
	}
}

// CircuitDigest returns the registry key of a circuit: the SHA-256 of
// its canonical .smo rendering, hex-encoded. Two structurally
// identical uploads — whatever formatting they arrived in — collapse
// to one session.
func CircuitDigest(c *core.Circuit) (digest, canonical string, err error) {
	var b strings.Builder
	if err := parse.WriteCircuit(&b, c); err != nil {
		return "", "", err
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), b.String(), nil
}

// Open parses, freezes and registers a circuit for tenant, returning
// the session entry (referenced; the caller must Put it). Posting a
// circuit that is already registered attaches the tenant to the
// existing entry — idempotent, and free of a second Freeze.
//
// Sessions are opened with CacheErrors enabled: a daemon serving
// hostile or buggy clients must not recompute a deterministic
// infeasibility on every retry. The session layer guarantees
// disconnect cancellations are never negative-cached (see
// internal/session), which is what makes this safe.
func (r *registry) Open(tenant, smoText string) (*sessionEntry, error) {
	c, err := parse.CircuitString(smoText)
	if err != nil {
		return nil, fmt.Errorf("serve: parse circuit: %w", err)
	}
	digest, _, err := CircuitDigest(c)
	if err != nil {
		return nil, fmt.Errorf("serve: canonicalize circuit: %w", err)
	}

	r.mu.Lock()
	if el, ok := r.items[digest]; ok {
		e := el.Value.(*sessionEntry)
		if _, attached := e.tenants[tenant]; !attached {
			if err := r.checkQuotaLocked(tenant); err != nil {
				r.mu.Unlock()
				return nil, err
			}
			e.tenants[tenant] = r.now()
		}
		r.lru.MoveToFront(el)
		e.lastUsed = r.now()
		e.refs++
		r.mu.Unlock()
		return e, nil
	}
	if err := r.checkQuotaLocked(tenant); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Unlock()

	// Freeze outside the lock: compiling a 100k-latch snapshot must not
	// stall every other tenant's lookups. The tiny race (two concurrent
	// first posts of the same circuit) is resolved below by
	// first-insert-wins.
	sess, err := session.Freeze(c, session.Config{CacheErrors: true})
	if err != nil {
		return nil, fmt.Errorf("serve: freeze circuit: %w", err)
	}

	now := r.now()
	e := &sessionEntry{
		digest:   digest,
		sess:     sess,
		latches:  c.L(),
		phases:   c.K(),
		paths:    len(c.Paths()),
		created:  now,
		lastUsed: now,
		tenants:  map[string]time.Time{tenant: now},
	}

	r.mu.Lock()
	if el, ok := r.items[digest]; ok {
		// Lost the freeze race: adopt the winner. The tenant still pays
		// its quota slot — the pre-freeze check ran outside this lock and
		// may be stale.
		won := el.Value.(*sessionEntry)
		if _, attached := won.tenants[tenant]; !attached {
			if err := r.checkQuotaLocked(tenant); err != nil {
				r.mu.Unlock()
				return nil, err
			}
			won.tenants[tenant] = now
		}
		r.lru.MoveToFront(el)
		won.lastUsed = now
		won.refs++
		r.mu.Unlock()
		return won, nil
	}
	// Recheck the quota now that the lock is held again: concurrent
	// Opens may have consumed it while the freeze ran unlocked.
	if err := r.checkQuotaLocked(tenant); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	e.refs++
	r.items[digest] = r.lru.PushFront(e)
	r.opened.Add(1)
	r.evictOverflowLocked()
	r.mu.Unlock()
	return e, nil
}

// Get references an existing session by digest; the caller must Put it.
func (r *registry) Get(digest string) (*sessionEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[digest]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, digest)
	}
	e := el.Value.(*sessionEntry)
	r.lru.MoveToFront(el)
	e.lastUsed = r.now()
	e.refs++
	return e, nil
}

// Put releases one reference taken by Open or Get.
func (r *registry) Put(e *sessionEntry) {
	if e == nil {
		return
	}
	r.mu.Lock()
	e.refs--
	r.mu.Unlock()
}

// SweepIdle evicts every unreferenced session idle longer than the
// TTL; the server runs it periodically. Returns the evicted count.
func (r *registry) SweepIdle() int {
	if r.idleTTL <= 0 {
		return 0
	}
	// Test hook: the armed fault runs with the registry unlocked, so a
	// test can race a concurrent Get/Open against the sweep decision.
	_ = faultinject.Fire("serve.registry.evict")
	cutoff := r.now().Add(-r.idleTTL)
	n := 0
	r.mu.Lock()
	for el := r.lru.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*sessionEntry)
		if e.refs == 0 && e.lastUsed.Before(cutoff) {
			r.lru.Remove(el)
			delete(r.items, e.digest)
			r.evictions.Add(1)
			n++
		}
		el = prev
	}
	r.mu.Unlock()
	return n
}

// evictOverflowLocked drops least-recently-used unreferenced entries
// until the table fits maxSessions. Referenced entries are skipped —
// the table may transiently exceed the cap when every entry is in use.
func (r *registry) evictOverflowLocked() {
	for el := r.lru.Back(); el != nil && r.lru.Len() > r.maxSessions; {
		prev := el.Prev()
		e := el.Value.(*sessionEntry)
		if e.refs == 0 {
			r.lru.Remove(el)
			delete(r.items, e.digest)
			r.evictions.Add(1)
		}
		el = prev
	}
}

func (r *registry) checkQuotaLocked(tenant string) error {
	if r.tenantQuota <= 0 {
		return nil
	}
	n := 0
	for el := r.lru.Front(); el != nil; el = el.Next() {
		if _, ok := el.Value.(*sessionEntry).tenants[tenant]; ok {
			n++
		}
	}
	if n >= r.tenantQuota {
		return fmt.Errorf("%w: tenant %q holds %d sessions (quota %d)", ErrTenantQuota, tenant, n, r.tenantQuota)
	}
	return nil
}

// Len reports the number of registered sessions.
func (r *registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// sessionInfo is one registry entry's listing for GET /v1/sessions.
type sessionInfo struct {
	Digest  string   `json:"digest"`
	Latches int      `json:"latches"`
	Phases  int      `json:"phases"`
	Paths   int      `json:"paths"`
	Tenants []string `json:"tenants"`
	Queries int64    `json:"queries"`
	AgeS    float64  `json:"age_s"`
	IdleS   float64  `json:"idle_s"`
}

// List snapshots the registry, most recently used first.
func (r *registry) List() []sessionInfo {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sessionInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*sessionEntry)
		tenants := make([]string, 0, len(e.tenants))
		for t := range e.tenants {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		out = append(out, sessionInfo{
			Digest:  e.digest,
			Latches: e.latches,
			Phases:  e.phases,
			Paths:   e.paths,
			Tenants: tenants,
			Queries: e.queries.Load(),
			AgeS:    now.Sub(e.created).Seconds(),
			IdleS:   now.Sub(e.lastUsed).Seconds(),
		})
	}
	return out
}
