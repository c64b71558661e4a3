package session_test

import (
	"context"
	"sync"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/session"
)

// query is one deterministic unit of mixed session work: it runs a
// kind-dependent analysis over its own overlay and reduces the outcome
// to a comparable summary (floats compared exactly — the concurrency
// acceptance criterion is bit-identity with a serial run, not
// tolerance agreement).
type query struct {
	kind string // "mintc", "checktc", "reopt", or an engine name
	edit struct {
		path  int
		delay float64
	}
}

func buildQueries(nPaths int) []query {
	kinds := []string{"mintc", "checktc", "reopt", "mlp", "mcr", "decomp", "ettf", "nrip", "sim"}
	qs := make([]query, 48)
	for i := range qs {
		qs[i].kind = kinds[i%len(kinds)]
		qs[i].edit.path = i % nPaths
		// A few queries repeat earlier edits exactly so the concurrent
		// run exercises the cache/singleflight paths too.
		qs[i].edit.delay = float64(10 + 7*(i%11))
	}
	return qs
}

// run executes one query and flattens its result into floats.
func run(ctx context.Context, s *session.Session, q query) ([]float64, error) {
	ov := s.Overlay().With(q.edit.path, q.edit.delay)
	switch q.kind {
	case "mintc":
		r, err := s.MinTc(ctx, ov, core.Options{})
		if err != nil {
			return nil, err
		}
		out := []float64{r.Schedule.Tc}
		return append(out, r.D...), nil
	case "checktc":
		r, err := s.MinTc(ctx, ov, core.Options{})
		if err != nil {
			return nil, err
		}
		an, err := s.CheckTc(ctx, ov, r.Schedule, core.Options{})
		if err != nil {
			return nil, err
		}
		out := []float64{boolToF(an.Feasible), float64(len(an.Violations))}
		return append(out, an.D...), nil
	case "reopt":
		tc, resolved, err := s.Reoptimize(ctx, ov, q.edit.path, q.edit.delay+25, core.Options{})
		if err != nil {
			return nil, err
		}
		return []float64{tc, boolToF(resolved)}, nil
	default: // engine solve
		opts := engine.Options{}
		if q.kind == "sim" {
			opts.Trials = 8
			opts.Seed = 42
		}
		r, err := s.Solve(ctx, q.kind, ov, opts)
		if err != nil {
			return nil, err
		}
		out := []float64{r.Tc, r.Schedule.Tc}
		return append(out, r.D...), nil
	}
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestSessionConcurrentMatchesSerial is the concurrency acceptance
// test: N goroutines fire a mix of MinTc / CheckTc / Reoptimize /
// engine solves with distinct overlays at one session, and every
// result must be bit-identical to running the same queries serially,
// in order, on a fresh session. Run under -race this also proves the
// snapshot-sharing layer (frozen kernels, overlays, singleflight,
// LRU) is data-race free.
func TestSessionConcurrentMatchesSerial(t *testing.T) {
	build := func() *session.Session {
		s, err := session.Freeze(circuits.Example1(80), session.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	nPaths := len(build().Compiled().Circuit().Paths())
	qs := buildQueries(nPaths)
	ctx := context.Background()

	// Serial reference on its own session.
	serial := build()
	want := make([][]float64, len(qs))
	for i, q := range qs {
		res, err := run(ctx, serial, q)
		if err != nil {
			t.Fatalf("serial query %d (%s): %v", i, q.kind, err)
		}
		want[i] = res
	}

	// Concurrent run: all queries at once against one shared session.
	shared := build()
	got := make([][]float64, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			got[i], errs[i] = run(ctx, shared, q)
		}(i, q)
	}
	wg.Wait()

	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d (%s): %v", i, qs[i].kind, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Errorf("query %d (%s): concurrent %v != serial %v", i, qs[i].kind, got[i], want[i])
			continue
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("query %d (%s) value %d: concurrent %v != serial %v (bit-identity violated)",
					i, qs[i].kind, j, got[i][j], want[i][j])
				break
			}
		}
	}

	// The snapshot must be untouched by all of it.
	for pidx, p := range shared.Compiled().Circuit().Paths() {
		if p.Delay != circuits.Example1(80).Paths()[pidx].Delay {
			t.Errorf("path %d delay mutated to %g", pidx, p.Delay)
		}
	}
}
