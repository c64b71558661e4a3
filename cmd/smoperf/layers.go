package main

import (
	"mintc/internal/obs"
)

// values maps metric names to measured numbers; units come from
// BENCHMARK.json.
type values map[string]float64

// addStats accumulates sign·src into dst (sign -1 turns two /metrics
// scrapes into a delta).
func addStats(dst *obs.Stats, src obs.Stats, sign int64) {
	if dst.Counters == nil {
		dst.Counters = map[string]int64{}
	}
	if dst.StageNs == nil {
		dst.StageNs = map[string]int64{}
	}
	for k, v := range src.Counters {
		dst.Counters[k] += sign * v
	}
	for k, v := range src.StageNs {
		dst.StageNs[k] += sign * v
	}
}

// solveStagesNs sums the stage timers one solve returned that do not
// nest in one another. On the decomposed path the component solves time
// their own LP stages inside decomp.components, in parallel, so only
// the decomposition's stages count there.
func solveStagesNs(st obs.Stats) int64 {
	names := []string{"lp.assemble", "lp.factor", "lp.pivot", "slide", "verify"}
	if _, ok := st.StageNs["decomp.components"]; ok {
		names = []string{"decomp.components", "decomp.couple", "verify"}
	}
	var sum int64
	for _, n := range names {
		sum += st.StageNs[n]
	}
	return sum
}

// layerValues turns the counters and stage timers the program returned
// for ops operations (engine.Result.Stats summed, or a /metrics delta)
// into the per-layer metrics: times and work per operation, ratios of
// useful outcomes to attempts, and failure counts as totals.
func layerValues(st obs.Stats, ops int) values {
	if ops == 0 {
		return values{}
	}
	n := float64(ops)
	stage := func(name string) float64 { return float64(st.StageNs[name]) / 1e6 / n }
	count := func(c obs.Counter) float64 { return float64(st.Counter(c)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := count(obs.SessionHits), count(obs.SessionMisses)
	return values{
		"slide_ms":                  stage("slide"),
		"slide_iterations":          count(obs.SlideIterations) / n,
		"lp.assemble_ms":            stage("lp.assemble"),
		"lp.factor_ms":              stage("lp.factor"),
		"lp.pivot_ms":               stage("lp.pivot"),
		"pivots":                    count(obs.Pivots) / n,
		"lp_refactorizations":       count(obs.LPRefactorizations) / n,
		"lp_warm_pivots_per_start":  ratio(count(obs.LPWarmPivots), count(obs.LPWarmStarts)),
		"decomp.components_ms":      stage("decomp.components"),
		"decomp.couple_ms":          stage("decomp.couple"),
		"probe_rounds":              count(obs.ProbeRounds) / n,
		"probe_relaxations":         count(obs.ProbeRelaxations) / n,
		"components_resolved_ratio": ratio(count(obs.ComponentsResolved), count(obs.ComponentsTotal)),
		"decomp_fastpaths":          count(obs.DecompFastPaths) / n,
		"verify_ms":                 stage("verify"),
		"verify_failures":           count(obs.VerifyFailures),
		"fallbacks":                 count(obs.Fallbacks),
		"session.hit_ratio":         ratio(hits, hits+misses),
		"session_dedup":             count(obs.SessionDedup),
	}
}
