package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
)

// sweepReps is how many times each side of a sweep record is timed;
// the record keeps the minimum, which filters scheduler noise on
// millisecond-scale runs.
const sweepReps = 5

// sweepRecord is the machine-readable result of one delay-sweep
// measurement, written as SWEEP_<circuit>.json. The (path, values)
// sweep runs through the library sweep (decomp.Sweep: re-solve the
// dirty component, warm witness-bound coupling probe per value) and
// through the per-point baseline — one cold monolithic MCR solve per
// value, which is also the exact oracle the sweep's answers are
// checked against. Speedup is per-point wall over sweep wall, and
// ComponentsResolved verifies only the edited path's component was
// re-solved: Components per priming pass plus one per sweep value.
type sweepRecord struct {
	Circuit            string  `json:"circuit"`
	Latches            int     `json:"latches"`
	PathIndex          int     `json:"path_index"`
	Values             int     `json:"values"`
	SweepWallNs        int64   `json:"sweep_wall_ns"`
	PerPointWallNs     int64   `json:"per_point_wall_ns"`
	Speedup            float64 `json:"speedup"`
	Components         int64   `json:"components_total"`
	ComponentsResolved int64   `json:"components_resolved"`
	// MaxRelDiff is the largest |sweep − per-point| / (1 + |per-point|)
	// over the sweep — the parity check riding along with the timing.
	MaxRelDiff float64 `json:"max_rel_diff"`
}

// runSweepBench measures the library sweep against the per-point
// baseline on the canonical multi-component workloads (gen.Banks) and
// on one giant-SCC ring, and writes one JSON record per circuit into
// dir.
func runSweepBench(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ring512, err := gen.Ring(2, 512, 1, 2, func(int) float64 { return 30 })
	if err != nil {
		return nil, err
	}
	var files []string
	for _, w := range []struct {
		name    string
		circuit *core.Circuit
		values  int
	}{
		{"banks-8x250", gen.Banks(8, 250, 1, 2, 30), 40},
		{"banks-16x125", gen.Banks(16, 124, 1, 2, 30), 40},
		// The giant-single-SCC workload: the whole ring is one
		// component, so the sweep's only lever is the witness-bound
		// walk.
		{"ring-2x512", ring512, 40},
	} {
		rec, err := sweepOne(w.name, w.circuit, w.values)
		if err != nil {
			return files, fmt.Errorf("%s: %w", w.name, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("SWEEP_%s.json", w.name))
		blob, merr := json.MarshalIndent(rec, "", "  ")
		if merr != nil {
			return files, merr
		}
		if werr := os.WriteFile(path, append(blob, '\n'), 0o644); werr != nil {
			return files, werr
		}
		files = append(files, path)
	}
	return files, nil
}

func sweepOne(name string, c *core.Circuit, nValues int) (sweepRecord, error) {
	cc, err := c.Freeze()
	if err != nil {
		return sweepRecord{}, err
	}
	// Sweep the first arc of the first bank across a range that crosses
	// the point where that bank becomes the binding one, so the optimum
	// actually moves and both sides do real re-solves.
	const pathIndex = 0
	values := make([]float64, nValues)
	for i := range values {
		values[i] = 80 * float64(i) / float64(nValues-1)
	}
	opts := core.Options{}
	out := sweepRecord{Circuit: name, Latches: c.L(), PathIndex: pathIndex, Values: nValues}

	var tcs []float64
	for rep := 0; rep < sweepReps; rep++ {
		rec := obs.New()
		start := time.Now()
		got, errs := decomp.Sweep(obs.With(context.Background(), rec), cc, opts, pathIndex, values, decomp.Config{}, nil)
		wall := time.Since(start).Nanoseconds()
		for i, err := range errs {
			if err != nil {
				return out, fmt.Errorf("sweep value %g: %w", values[i], err)
			}
		}
		if rep == 0 || wall < out.SweepWallNs {
			out.SweepWallNs = wall
		}
		stats := rec.Snapshot()
		out.Components = stats.Counter(obs.ComponentsTotal)
		out.ComponentsResolved = stats.Counter(obs.ComponentsResolved)
		tcs = got
	}

	base := cc.Overlay()
	for rep := 0; rep < sweepReps; rep++ {
		start := time.Now()
		for i, v := range values {
			s, err := mcr.NewSolverOverlay(base.With(pathIndex, v), opts)
			if err != nil {
				return out, err
			}
			res, err := s.SolveFromCtx(context.Background(), 0)
			if err != nil {
				return out, err
			}
			if d := math.Abs(tcs[i]-res.Tc) / (1 + math.Abs(res.Tc)); d > out.MaxRelDiff {
				out.MaxRelDiff = d
			}
		}
		if wall := time.Since(start).Nanoseconds(); rep == 0 || wall < out.PerPointWallNs {
			out.PerPointWallNs = wall
		}
	}
	if out.MaxRelDiff > 1e-9 {
		return out, fmt.Errorf("sweep parity broken: max rel diff %g", out.MaxRelDiff)
	}
	if out.SweepWallNs > 0 {
		out.Speedup = float64(out.PerPointWallNs) / float64(out.SweepWallNs)
	}
	return out, nil
}
