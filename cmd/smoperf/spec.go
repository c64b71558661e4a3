package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the harness reads: the metric
// names and units it reports, the workloads it runs, the default window
// and, for -compare, each end-to-end metric's regression bound.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// tier lists the metrics a run reports: per-layer when traced,
// end-to-end otherwise.
func (sp *spec) tier(traced bool) []metricSpec {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// all lists every declared metric, end-to-end first.
func (sp *spec) all() []metricSpec { return slices.Concat(sp.EndToEnd, sp.PerLayer) }

func (sp *spec) lookup(name string) (metricSpec, bool) {
	for _, m := range sp.all() {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// result matches an outcome against the spec. Every name a workload
// computes must be declared, and every end-to-end metric must be
// measured and nonzero; a per-layer metric a workload has no layer for
// reads 0.
func (sp *spec) result(o *outcome, traced bool) (result, error) {
	for _, vs := range []values{o.e2e, o.layer} {
		for name := range vs {
			if _, ok := sp.lookup(name); !ok {
				return result{}, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if o.e2e[m.Name] == 0 {
			return result{}, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range sp.tier(traced) {
		res.Metrics[m.Name] = metric{Value: finite(o.value(m.Name, traced)), Unit: m.Unit}
	}
	return res, nil
}
