package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/parse"
	"mintc/internal/serve"
	"mintc/internal/session"
)

// binStream sends one streaming request on a binary connection and
// returns its records: every body frame up to the closing done frame.
func binStream(t *testing.T, bc *binClient, method string, body any) []map[string]any {
	t.Helper()
	bc.id++
	if err := serve.EncodeFrame(bc.c, map[string]any{"id": bc.id, "method": method, "body": body}); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	for {
		var f binResp
		if err := serve.DecodeFrame(bc.r, &f); err != nil {
			t.Fatal(err)
		}
		if f.Error != "" {
			t.Fatalf("%s: error frame %q", method, f.Error)
		}
		if f.Done {
			return recs
		}
		var rec map[string]any
		if err := json.Unmarshal(f.Body, &rec); err != nil {
			t.Fatalf("bad %s frame %s: %v", method, f.Body, err)
		}
		recs = append(recs, rec)
	}
}

// TestServedSweepMatchesMLP pins the served sweep, a min-cycle-ratio
// walk, to the paper's Algorithm MLP: every streamed point must give
// the same feasible/infeasible verdict as the session's LP MinTc on the
// request's overlay with the swept delay applied, and a Tc within 1e-9
// relative. It covers both transports, a request edit on another path,
// the paper's circuits, a ring and disconnected banks, and every
// option shape a sweep can carry, pinned cycle times included.
func TestServedSweepMatchesMLP(t *testing.T) {
	var ring *core.Circuit
	for _, b := range gen.Suite() {
		if b.Name == "ring-2x128" {
			ring = b.Circuit
		}
	}
	cases := []struct {
		name string
		c    *core.Circuit
	}{
		{"example1", circuits.Example1(80)},
		{"gaas-mips", circuits.GaAsMIPS()},
		{"ring-2x128", ring},
		{"banks-4x12", gen.Banks(4, 12, 1, 2, 30)},
	}
	ctx := context.Background()
	_, ts := newTestServer(t, serve.Config{})
	_, addr := startSniffing(t, serve.Config{})
	bc := dialBin(t, addr)

	points, infeasible := 0, 0
	for _, cs := range cases {
		text := circuitText(t, cs.c)
		parsed, err := parse.CircuitString(text)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := parsed.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		lib := session.New(cc, session.Config{})
		opened := bc.call(t, "open", map[string]any{"tenant": "bin", "circuit": text})
		var binOpen struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(opened.Body, &binOpen); err != nil || opened.Error != "" {
			t.Fatalf("%s: binary open: %v %s", cs.name, err, opened.Error)
		}
		digests := map[string]string{"http": openCircuit(t, ts, cs.c), "binary": binOpen.Digest}

		paths := cc.Circuit().Paths()
		pidx, d := 0, -1.0
		for i, p := range paths {
			if p.Delay > d {
				pidx, d = i, p.Delay
			}
		}
		epath := (pidx + 1) % len(paths)
		edelay := 1.2 * paths[epath].Delay
		ov := lib.Overlay().With(epath, edelay)
		base, err := lib.MinTc(ctx, ov, core.Options{})
		if err != nil {
			t.Fatalf("%s: base MinTc: %v", cs.name, err)
		}
		tc0 := base.Schedule.Tc
		values := []float64{d, 1.1 * d, -1}
		for k := 0; k <= 16; k++ {
			values = append(values, 3*d*float64(k)/16)
		}

		shapes := []struct {
			name string
			json map[string]any
			opts core.Options
		}{
			{"plain", map[string]any{}, core.Options{}},
			{"skew", map[string]any{"skew": 0.05 * tc0}, core.Options{Skew: 0.05 * tc0}},
			{"hold", map[string]any{"design_for_hold": true}, core.Options{DesignForHold: true}},
			{"phase-width", map[string]any{"min_phase_width": 0.2 * tc0}, core.Options{MinPhaseWidth: 0.2 * tc0}},
			{"fixed-feasible", map[string]any{"fixed_tc": 1.5 * tc0}, core.Options{FixedTc: 1.5 * tc0}},
			{"fixed-infeasible", map[string]any{"fixed_tc": 0.5 * tc0}, core.Options{FixedTc: 0.5 * tc0}},
		}
		for _, sh := range shapes {
			body := map[string]any{
				"digest":  "",
				"edits":   []map[string]any{{"path": epath, "delay": edelay}},
				"options": sh.json,
				"path":    pidx,
				"values":  values,
			}
			for _, transport := range []string{"http", "binary"} {
				where := fmt.Sprintf("%s/%s/%s", cs.name, sh.name, transport)
				body["digest"] = digests[transport]
				var recs []map[string]any
				if transport == "http" {
					recs = streamLines(t, ts.URL+"/v1/sweep", body)
				} else {
					recs = binStream(t, bc, "sweep", body)
				}
				if len(recs) != len(values)+1 || recs[len(values)]["done"] != true {
					t.Fatalf("%s: %d records, want %d points + done: %v", where, len(recs), len(values), recs)
				}
				for i, v := range values {
					rec := recs[i]
					if cert, ok := rec["certified"].(bool); !ok || cert {
						t.Errorf("%s value %g: record %v, want \"certified\": false", where, v, rec)
					}
					if got, _ := rec["value"].(float64); got != v {
						t.Fatalf("%s: record %d is value %v, want %g (input order)", where, i, rec["value"], v)
					}
					_, served := rec["error"]
					if v < 0 {
						if !served {
							t.Errorf("%s value %g: record %v, want an invalid-delay error", where, v, rec)
						}
						continue
					}
					want, werr := lib.MinTc(ctx, ov.With(pidx, v), sh.opts)
					points++
					if (werr != nil) != served {
						t.Errorf("%s value %g: served %v, MLP err %v", where, v, rec, werr)
						continue
					}
					if werr != nil {
						infeasible++
						continue
					}
					got, _ := rec["tc"].(float64)
					wantTc := want.Schedule.Tc
					if math.Abs(got-wantTc) > 1e-9*math.Abs(wantTc) {
						t.Errorf("%s value %g: served Tc %.17g, MLP %.17g", where, v, got, wantTc)
					}
				}
			}
		}
	}
	if infeasible == 0 || infeasible == points {
		t.Errorf("%d of %d points infeasible: the pinned-Tc shapes must split the verdicts", infeasible, points)
	}
	t.Logf("%d points checked against MLP, %d infeasible", points, infeasible)
}
