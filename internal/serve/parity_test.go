package serve_test

import (
	"context"
	"math"
	"net/http"
	"testing"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/parse"
	"mintc/internal/serve"
	"mintc/internal/session"
)

// holdVariant gives every synchronizer a hold requirement of 0.3× the
// mean path delay and every path a best-case delay of half its worst
// case, so design_for_hold adds a hold row per path, tight enough that
// an edit below MinDelay (which moves it) can change the optimum.
func holdVariant(c *core.Circuit) *core.Circuit {
	var mean float64
	for _, p := range c.Paths() {
		mean += p.Delay
	}
	mean /= float64(len(c.Paths()))
	syncs := append([]core.Synchronizer(nil), c.Syncs()...)
	for i := range syncs {
		syncs[i].Hold = 0.3 * mean
	}
	paths := append([]core.Path(nil), c.Paths()...)
	for i := range paths {
		paths[i].MinDelay = paths[i].Delay * 0.5
	}
	out := core.Build(c.K(), syncs, paths)
	for p := 0; p < c.K(); p++ {
		out.SetPhaseName(p, c.PhaseName(p))
	}
	return out
}

// TestServedMatchesLibrary: on every gen.Suite circuit, with fixed
// edits and with and without design_for_hold, the served certified
// solve, mintc and reoptimize answers equal the library's bit for bit
// (a Session over the same parsed circuit answers through the same
// warm-started path), and every served cycle time equals a cold
// core.MinTcOverlay of the edited overlay up to LP roundoff — which is
// what pins the dual shortcut's hold-row handling.
func TestServedMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	ctx := context.Background()
	holdCases, reopts := 0, 0
	for _, bm := range gen.Suite() {
		for _, hold := range []bool{false, true} {
			c := bm.Circuit
			if hold {
				c = holdVariant(c)
			}
			text := circuitText(t, c)
			parsed, err := parse.CircuitString(text)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := session.Freeze(parsed, session.Config{})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{DesignForHold: hold}
			paths := parsed.Paths()
			edits := []map[string]any{{"path": 0, "delay": paths[0].Delay * 1.1}}
			ov := sess.Overlay().With(0, paths[0].Delay*1.1)
			cold, err := core.MinTcOverlay(ov, opts)
			if err != nil {
				continue // hold-infeasible edit: no optimum to compare
			}
			if hold {
				holdCases++
			}
			var opened struct {
				Digest string `json:"digest"`
			}
			if code := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"tenant": "parity", "circuit": text}, &opened); code != http.StatusOK {
				t.Fatalf("%s: open: status %d", bm.Name, code)
			}
			req := func(extra map[string]any) map[string]any {
				body := map[string]any{"digest": opened.Digest, "edits": edits, "options": map[string]any{"design_for_hold": hold}}
				for k, v := range extra {
					body[k] = v
				}
				return body
			}
			name := bm.Name
			if hold {
				name += "/hold"
			}
			same := func(what string, served, lib, ref float64) {
				t.Helper()
				if math.Float64bits(served) != math.Float64bits(lib) {
					t.Errorf("%s %s: served Tc %v, library %v", name, what, served, lib)
				}
				if math.Abs(served-ref) > 1e-9*(1+math.Abs(ref)) {
					t.Errorf("%s %s: served Tc %.12g, full solve %.12g", name, what, served, ref)
				}
			}

			var mt struct {
				Tc float64 `json:"tc"`
			}
			if code := postJSON(t, ts.URL+"/v1/mintc", req(nil), &mt); code != http.StatusOK {
				t.Fatalf("%s: mintc: status %d", name, code)
			}
			lib, err := sess.MinTc(ctx, ov, opts)
			if err != nil {
				t.Fatal(err)
			}
			same("mintc", mt.Tc, lib.Schedule.Tc, cold.Schedule.Tc)

			var sv struct {
				Tc        float64 `json:"tc"`
				Certified bool    `json:"certified"`
			}
			if code := postJSON(t, ts.URL+"/v1/solve", req(map[string]any{"certify": true}), &sv); code != http.StatusOK {
				t.Fatalf("%s: solve: status %d", name, code)
			}
			libSolve, err := sess.SolveCertified(ctx, "mlp", ov, engine.Options{Core: opts}, engine.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !sv.Certified {
				t.Errorf("%s: served certified solve is not certified", name)
			}
			same("certified solve", sv.Tc, libSolve.Tc, cold.Schedule.Tc)

			// Re-ask a few paths at a tenth of their delay, below their
			// MinDelay: under design_for_hold the edit moves the path's
			// hold row as well as its delay row.
			for _, p := range []int{1, 4, 5} {
				if p >= len(paths) {
					continue
				}
				newDelay := paths[p].Delay * 0.1
				full, err := core.MinTcOverlay(ov.With(p, newDelay), opts)
				if err != nil {
					continue // hold-infeasible: reoptimize reports the error
				}
				var ro struct {
					Tc float64 `json:"tc"`
				}
				if code := postJSON(t, ts.URL+"/v1/reoptimize", req(map[string]any{"path": p, "delay": newDelay}), &ro); code != http.StatusOK {
					t.Fatalf("%s: reoptimize path %d: status %d", name, p, code)
				}
				libTc, _, err := sess.Reoptimize(ctx, ov, p, newDelay, opts)
				if err != nil {
					t.Fatal(err)
				}
				same("reoptimize", ro.Tc, libTc, full.Schedule.Tc)
				reopts++
			}
		}
	}
	if holdCases < 5 || reopts < 40 {
		t.Fatalf("only %d design_for_hold cases and %d reoptimize answers compared", holdCases, reopts)
	}
}
