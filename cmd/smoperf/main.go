// Command smoperf is the repository's benchmark: one command that
// measures the certified min-Tc answer through every route a user
// takes — a CLI solve of the paper's circuits, the 10k–100k decomposed
// path, smod what-if queries and smod's streamed sweeps — end to end
// and layer by layer, and checks every answer it gets.
//
//	bash cmd/smoperf/run.sh --workload cli-suite --seed 1 --seconds 20 --trace 0
//	bash cmd/smoperf/run.sh -all -seed 1 -out run.json
//	bash cmd/smoperf/run.sh -all -seed 1 -trace 1 -spans spans.json
//	bash cmd/smoperf/run.sh -compare old new
//
// A run prints each metric by name with its unit, then, as its last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics of BENCHMARK.json untraced (-trace 0), the
// per-layer metrics traced (-trace 1). -all runs every workload in a
// fresh child process. The harness only ever times its own calls into
// public functions (parse, engine, session, smod's HTTP API) and reads
// the counters and stage timers those calls already return.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what a workload needs to run.
type runConfig struct {
	seed   int64
	window time.Duration
	smod   string  // smod binary (served workloads)
	tracer *tracer // nil when untraced
}

// outcome is one workload run before it is matched against the spec.
type outcome struct {
	attempted, failed int64
	e2e, layer        values
	notes             []string // human-readable context printed with the metrics
}

var workloads = map[string]func(runConfig) (*outcome, error){
	// Per-circuit samples number ~70, so the pooled sample (~1200)
	// leaves ~60 beyond p95.
	"cli-suite": func(cfg runConfig) (*outcome, error) { return runInproc(cfg, cliSuiteSet, 95) },
	// ~8 rounds of 4 circuits support no percentile with ten samples
	// beyond it; p75 is the highest that is not one outlier.
	"scale-decomp": func(cfg runConfig) (*outcome, error) { return runInproc(cfg, scaleDecompSet, 75) },
	"serve-whatif": runWhatif,
	"serve-sweep":  runSweep,
}

var served = map[string]bool{"serve-whatif": true, "serve-sweep": true}

// metric and result are the shape of a run's last output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out writes and -compare reads: one run of one or more
// workloads.
type record struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		all      = flag.Bool("all", false, "run every workload, each in a fresh child process")
		seed     = flag.Int64("seed", 1, "seed for op order, edits, arrivals, sweep paths and ranges, and rand-* time scales")
		seconds  = flag.Float64("seconds", 0, "measured window per workload (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = record harness spans and report the per-layer metrics; 0 = report the end-to-end metrics")
		spans    = flag.String("spans", "", "span file a traced run writes (default .bench_build/perf/spans-<workload>-<seed>.json)")
		out      = flag.String("out", "", "also write the run record to this JSON file")
		compare  = flag.Bool("compare", false, "compare run records: smoperf -compare OLD NEW (files or directories)")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two arguments: OLD NEW"))
		}
		if err := runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	rec := record{Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]result{}}

	switch {
	case *all:
		ok := true
		for _, w := range sp.Workloads {
			res, err := runChild(w.Name, *seed, *seconds, *trace, *spans)
			if err != nil {
				fatal(err)
			}
			rec.Workloads[w.Name] = res
			ok = ok && res.Correct
		}
		if err := writeRecord(*out, rec); err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		run, known := workloads[*workload]
		if !known {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
		if served[*workload] {
			if cfg.smod, err = buildSmod(root); err != nil {
				fatal(err)
			}
		}
		if *trace == 1 {
			cfg.tracer = newTracer()
		}
		fmt.Printf("smoperf: %s, seed %d, %gs window, trace %d\n", *workload, *seed, *seconds, *trace)
		o, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		res, err := sp.result(o, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printOutcome(os.Stdout, sp, o, *trace == 1)
		if cfg.tracer != nil {
			path := *spans
			if path == "" {
				path = filepath.Join(root, ".bench_build", "perf", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
			}
			if err := cfg.tracer.write(path); err != nil {
				fatal(err)
			}
			printSelfTimes(os.Stdout, cfg.tracer.spans)
			fmt.Printf("  spans: %s\n", path)
		}
		rec.Workloads[*workload] = res
		if err := writeRecord(*out, rec); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		fatal(fmt.Errorf("name a -workload, or pass -all or -compare"))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "smoperf: %v\n", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module mintc.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module mintc\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (go.mod of module mintc) above the working directory")
		}
		dir = parent
	}
}

// runChild runs one workload in a fresh process, echoing its output,
// and returns the result its last line reports.
func runChild(name string, seed int64, seconds float64, trace int, spans string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if spans != "" {
		ext := filepath.Ext(spans)
		args = append(args, "-spans", strings.TrimSuffix(spans, ext)+"-"+name+ext)
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: last line is not a result: %w", name, err)
	}
	return res, nil
}

func writeRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printOutcome prints every metric by name with its unit: the
// end-to-end ones always (a traced run's, set against an untraced
// run's, give the tracing overhead) and the per-layer ones when traced.
func printOutcome(w io.Writer, sp *spec, o *outcome, traced bool) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, n := range o.notes {
		fmt.Fprintf(bw, "  # %s\n", n)
	}
	tiers := []bool{false}
	if traced {
		tiers = append(tiers, true)
	}
	for _, t := range tiers {
		for _, m := range sp.tier(t) {
			fmt.Fprintf(bw, "  %-36s %14.6g %s\n", m.Name, o.value(m.Name, t), m.Unit)
		}
	}
	fmt.Fprintf(bw, "  attempted %d, failed %d\n", o.attempted, o.failed)
}

func (o *outcome) value(name string, traced bool) float64 {
	if traced {
		return o.layer[name]
	}
	return o.e2e[name]
}

// printSelfTimes prints each span name's self time (its duration not
// covered by child spans), largest first.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  # span self time (%d spans):", len(spans))
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.1fms", n, ms(self[n]))
	}
	fmt.Fprintln(w)
}

// finite keeps JSON encodable: a percentile that reaches a failed
// operation (+Inf) is reported as the largest float.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}
