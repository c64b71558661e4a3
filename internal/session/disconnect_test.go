package session_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/session"
)

// disconnectEngine models the serve-path failure mode: an engine that,
// when its context is cancelled (a client disconnect), surfaces the
// abort as a PLAIN error wrapping neither context.Canceled nor
// context.DeadlineExceeded — exactly the kind of error the session's
// cachableError test cannot recognize as transient. The session must
// still refuse to negative-cache it, because the call's own context
// says the run was cut short.
type disconnectEngine struct {
	mu      sync.Mutex
	started chan struct{} // closed when the first solve begins
	calls   int
}

func (e *disconnectEngine) Name() string { return "disconnecttest" }

func (e *disconnectEngine) Solve(ctx context.Context, ov core.DelayOverlay, opts engine.Options) (*engine.Result, error) {
	e.mu.Lock()
	e.calls++
	first := e.calls == 1
	e.mu.Unlock()
	if first {
		close(e.started)
		// Block until the client hangs up, then report the abort the
		// way a real engine's innards might: stripped of the sentinel.
		<-ctx.Done()
		return nil, errors.New("solver interrupted mid-pivot")
	}
	return &engine.Result{Tc: 42, Schedule: &core.Schedule{Tc: 42}}, nil
}

var disconnectEng = &disconnectEngine{started: make(chan struct{})}

func init() { engine.Register(disconnectEng) }

// TestDisconnectNeverNegativeCached races a disconnecting client
// against a later cache reader, with CacheErrors opted in (the serve
// layer's configuration): the disconnected leader's plain error must
// not be memoized, and the reader's identical query must re-run the
// engine and succeed.
func TestDisconnectNeverNegativeCached(t *testing.T) {
	s, err := session.Freeze(circuits.Example1(80), session.Config{CacheErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	ov := s.Overlay()

	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, "disconnecttest", ov, engine.Options{})
		leaderErr <- err
	}()

	// Wait until the solve is genuinely in flight, then disconnect.
	<-disconnectEng.started
	cancel()
	if err := <-leaderErr; err == nil {
		t.Fatal("disconnected solve returned nil error")
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The regression needs the hostile shape; if the engine boundary
		// starts translating aborts into sentinels this test loses its
		// teeth and must be reworked, so fail loudly.
		t.Fatalf("test engine error unexpectedly wraps a context sentinel: %v", err)
	}

	// The reader arrives after the disconnect with the identical query.
	// A negative-cached error would be served here as a hit.
	res, err := s.Solve(context.Background(), "disconnecttest", ov, engine.Options{})
	if err != nil {
		t.Fatalf("reader after disconnect got poisoned cache: %v", err)
	}
	if res.Tc != 42 {
		t.Fatalf("reader Tc = %v, want 42", res.Tc)
	}
	disconnectEng.mu.Lock()
	calls := disconnectEng.calls
	disconnectEng.mu.Unlock()
	if calls != 2 {
		t.Fatalf("engine ran %d times, want 2 (disconnected run must not be memoized)", calls)
	}
}
