// Command smoclk analyzes and optimizes the clocking of
// latch-controlled synchronous circuits described in the .smo format.
//
// Design mode (default) finds the minimum cycle time and an optimal
// clock schedule with Algorithm MLP:
//
//	smoclk -f circuit.smo
//	smoclk -f circuit.smo -engine mcr        # min-cycle-ratio engine
//	smoclk -f circuit.smo -engine sim        # simulate the optimum dynamically
//	smoclk -f circuit.smo -baseline nrip     # NRIP / edge-triggered baselines
//	smoclk -f circuit.smo -diagram -svg out.svg
//
// Every solve goes through the unified engine layer, so any registered
// engine is selectable by name (-engine mlp|mcr|decomp|nrip|ettf|sim;
// "lp" is an alias for mlp), can be bounded in time (-timeout 50ms aborts with
// the partial progress reported), and can stream a structured JSONL
// trace of counters and stages (-trace solve.jsonl). -stats prints the
// solve's counters and stage timings. -certify routes the solve
// through the degradation supervisor: the answer is independently
// re-checked against the paper's constraint system (and the LP duality
// gap, for exact engines), failed rungs fall down the engine's
// fallback ladder, and the verdict, gap and trail are printed.
//
// Analysis mode verifies a given schedule (checkTc):
//
//	smoclk -f circuit.smo -check schedule.smo
//
// Additional clock requirements map to the paper's "further
// requirements" hook: -minwidth, -minsep, -skew; -tc pins the cycle
// time. -dump prints the generated linear program.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"mintc"
)

func main() {
	var (
		file     = flag.String("f", "", "circuit description file (.smo); '-' for stdin")
		check    = flag.String("check", "", "schedule file: verify instead of optimize")
		engine   = flag.String("engine", "lp", "solver engine: mlp (aka lp), mcr, decomp, nrip, ettf or sim")
		timeout  = flag.Duration("timeout", 0, "abort the solve after this duration (e.g. 50ms, 2s)")
		trace    = flag.String("trace", "", "stream a structured JSONL solve trace to this file")
		stats    = flag.Bool("stats", false, "print solve statistics (counters and stage timings)")
		certify  = flag.Bool("certify", false, "independently certify the result and fall back through the engine's degradation ladder on failure")
		baseline = flag.String("baseline", "", "run a baseline instead: nrip, ettf or agrawal")
		diagram  = flag.Bool("diagram", false, "print an ASCII timing diagram")
		svgOut   = flag.String("svg", "", "write an SVG timing diagram to this file")
		dump     = flag.Bool("dump", false, "print the generated linear program")
		simulate = flag.Bool("sim", false, "cross-check the schedule by cycle-accurate simulation")
		minWidth = flag.Float64("minwidth", 0, "minimum phase width")
		minSep   = flag.Float64("minsep", 0, "minimum separation between I/O phase pairs")
		skew     = flag.Float64("skew", 0, "clock skew margin")
		fixedTc  = flag.Float64("tc", 0, "pin the cycle time (design at fixed Tc)")
		cycles   = flag.Int("cycles", 2, "cycles shown in diagrams")
		lex      = flag.String("lex", "", "tie-break among optimal schedules: max-widths, min-widths, max-min-width, min-departures, compact")
		param    = flag.Int("parametric", -1, "piecewise-linear Tc*(delay) sweep for this path index")
		paramTo  = flag.Float64("pmax", 200, "upper end of the -parametric sweep")
		gnl      = flag.Bool("gnl", false, "treat -f as a gate-level netlist (.gnl) and extract the timing model first")
		model    = flag.String("model", "linear", "gate delay model for -gnl: unit, linear or elmore")
		toploops = flag.Int("toploops", 0, "report the N most critical loops (cycle-ratio bounds)")
		mcTrials = flag.Int("montecarlo", 0, "run N Monte-Carlo trials with per-cycle delay variation")
		holdOpt  = flag.Bool("hold", false, "design with conservative hold constraints (elements with hold > 0)")
		marginTc = flag.Float64("margin", 0, "at this cycle time, maximize the worst setup margin instead of minimizing Tc")
		objectiv = flag.String("objective", "", "schedule objective at the -tc cycle time: margin (maximize worst setup margin), width (minimize total phase width) or skew (maximize tolerated extra clock skew); runs through the engine layer, so -engine, -certify and -trace apply")
		dotOut   = flag.String("dot", "", "write the circuit graph in Graphviz DOT format to this file")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "smoclk: -f <circuit.smo> is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		check: *check, engine: *engine, baseline: *baseline,
		diagram: *diagram, svgOut: *svgOut, dump: *dump, simulate: *simulate,
		cycles: *cycles, lex: *lex, parametric: *param, paramTo: *paramTo,
		gnl: *gnl, model: *model, toploops: *toploops, dotOut: *dotOut, mcTrials: *mcTrials, marginTc: *marginTc,
		timeout: *timeout, trace: *trace, stats: *stats, certify: *certify,
		opts: mintc.Options{MinPhaseWidth: *minWidth, MinSeparation: *minSep, Skew: *skew, FixedTc: *fixedTc, DesignForHold: *holdOpt},
	}
	if *objectiv != "" {
		if *fixedTc <= 0 {
			fmt.Fprintf(os.Stderr, "smoclk: -objective %s requires -tc (the cycle time to design the schedule at)\n", *objectiv)
			os.Exit(2)
		}
		switch *objectiv {
		case "margin":
			cfg.opts.Objective = mintc.MaxMarginAtTc(*fixedTc)
		case "width":
			cfg.opts.Objective = mintc.MinPhaseWidthAtTc(*fixedTc)
		case "skew":
			cfg.opts.Objective = mintc.MaxSkewBudgetAtTc(*fixedTc)
		default:
			fmt.Fprintf(os.Stderr, "smoclk: unknown -objective %q (want margin, width or skew)\n", *objectiv)
			os.Exit(2)
		}
	}
	if err := run(*file, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "smoclk: %v\n", err)
		os.Exit(1)
	}
}

// config carries the parsed command-line options.
type config struct {
	check, engine, baseline string
	diagram                 bool
	svgOut                  string
	dump, simulate          bool
	cycles                  int
	lex                     string
	parametric              int
	paramTo                 float64
	gnl                     bool
	model                   string
	toploops                int
	mcTrials                int
	marginTc                float64
	dotOut                  string
	timeout                 time.Duration
	trace                   string
	stats                   bool
	certify                 bool
	opts                    mintc.Options
}

var secondaries = map[string]mintc.Secondary{
	"max-widths":     mintc.MaxPhaseWidths,
	"min-widths":     mintc.MinPhaseWidths,
	"max-min-width":  mintc.MaxMinPhaseWidth,
	"min-departures": mintc.MinDepartures,
	"compact":        mintc.CompactSchedule,
}

func run(file string, cfg config) error {
	check, baseline := cfg.check, cfg.baseline
	diagram, svgOut, dump, simulate := cfg.diagram, cfg.svgOut, cfg.dump, cfg.simulate
	opts, cycles := cfg.opts, cfg.cycles
	c, err := loadCircuit(file, cfg)
	if err != nil {
		return err
	}

	if check != "" {
		return runCheck(c, check, opts, simulate)
	}

	if cfg.parametric >= 0 {
		return runParametric(c, cfg)
	}

	var sched *mintc.Schedule
	var d []float64
	switch {
	case cfg.marginTc > 0:
		r, err := mintc.MaxMarginSchedule(c, opts, cfg.marginTc)
		if err != nil {
			return err
		}
		fmt.Printf("margin-optimal schedule at Tc = %.6g: worst setup margin %.6g\n", cfg.marginTc, r.Margin)
		fmt.Println(r.Schedule)
		sched, d = r.Schedule, r.D
	case cfg.lex != "":
		sec, ok := secondaries[cfg.lex]
		if !ok {
			return fmt.Errorf("unknown -lex objective %q", cfg.lex)
		}
		r, err := mintc.MinTcLex(c, opts, sec)
		if err != nil {
			return err
		}
		fmt.Printf("optimal Tc with %s tie-break:\n", cfg.lex)
		fmt.Print(r.Report())
		sched, d = r.Schedule, r.D
	case baseline == "nrip":
		nr, err := mintc.MinTcNRIP(c, opts)
		if err != nil {
			return err
		}
		fmt.Printf("NRIP baseline: Tc = %.6g (edge-triggered start %.6g, borrowing gain %.6g)\n",
			nr.Schedule.Tc, nr.EdgeTriggeredTc, nr.BorrowingGain)
		fmt.Println(nr.Schedule)
		sched = nr.Schedule
	case baseline == "agrawal":
		r, err := mintc.MinTcFrequencySearch(c, 0.5, 0)
		if err != nil {
			return err
		}
		fmt.Printf("frequency-search baseline (symmetric clock, duty 0.5): Tc = %.6g (%d probes)\n", r.Tc, r.Probes)
		fmt.Println(r.Schedule)
		sched = r.Schedule
	case baseline == "ettf":
		et, err := mintc.MinTcEdgeTriggered(c, opts)
		if err != nil {
			return err
		}
		fmt.Printf("edge-triggered baseline: Tc = %.6g (%d constraints, %d pivots)\n",
			et.Schedule.Tc, et.NumConstraints, et.Pivots)
		fmt.Println(et.Schedule)
		sched = et.Schedule
	case baseline != "":
		return fmt.Errorf("unknown baseline %q (want nrip, ettf or agrawal)", baseline)
	default:
		res, err := runEngine(c, cfg)
		if err != nil {
			return err
		}
		if dump {
			// The mlp engine reports the decomposed result (no single
			// monolithic LP to print) above its size threshold, so gate
			// on the detail type, not the engine name.
			if r, ok := res.Detail.(*mintc.Result); ok {
				fmt.Println("\ngenerated linear program:")
				fmt.Print(r.LP.String())
			}
		}
		sched, d = res.Schedule, res.D
	}

	if d == nil {
		// Baselines don't carry departures; derive them by analysis.
		an, err := mintc.CheckTc(c, sched, opts)
		if err != nil {
			return err
		}
		d = an.D
	}
	if diagram {
		fmt.Println()
		fmt.Print(mintc.RenderDiagram(c, sched, d, mintc.RenderOptions{Cycles: cycles}))
	}
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(mintc.RenderSVG(c, sched, d, mintc.RenderOptions{Cycles: cycles})), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgOut)
	}
	if cfg.toploops > 0 {
		loops, err := mintc.TopLoops(c, opts, cfg.toploops, 0)
		if err != nil {
			return err
		}
		fmt.Printf("\ntop %d critical loops (cycle-ratio bounds on Tc):\n", len(loops))
		for _, lp := range loops {
			fmt.Printf("  ratio %8.4g  delay %8.4g / %d crossing(s)  %v\n",
				lp.Ratio, lp.Delay, lp.Crossings, lp.Names)
		}
	}
	if cfg.dotOut != "" {
		f, err := os.Create(cfg.dotOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := mintc.WriteDOT(f, c, d); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.dotOut)
	}
	if cfg.mcTrials > 0 {
		rng := rand.New(rand.NewSource(1))
		mc, err := mintc.SimulateMonteCarlo(c, sched, mintc.MCConfig{Trials: cfg.mcTrials}, rng)
		if err != nil {
			return err
		}
		fmt.Printf("monte carlo: %d trials, %d failing, worst observed slack %.6g\n",
			mc.Trials, mc.FailingTrials, mc.WorstSlack)
	}
	if simulate {
		return runSim(c, sched)
	}
	return nil
}

// runEngine solves the design problem through the unified engine layer
// (any registered engine by name, with optional deadline and trace) and
// prints the engine-specific report. The circuit is frozen first and
// the solve runs against the immutable snapshot through a zero-edit
// overlay, so it cannot mutate the model that the diagram, loop and
// simulation reporting read afterwards.
func runEngine(c *mintc.Circuit, cfg config) (*mintc.EngineResult, error) {
	name := cfg.engine
	if name == "lp" { // historical alias for Algorithm MLP
		name = "mlp"
	}
	cc, err := mintc.Freeze(c)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	eopts := mintc.EngineOptions{Core: cfg.opts, Seed: 1}
	if cfg.trace != "" {
		f, err := os.Create(cfg.trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rec := mintc.NewRecorder()
		rec.SetSink(mintc.NewTraceWriter(f))
		eopts.Rec = rec
	}
	var res *mintc.EngineResult
	if cfg.certify {
		res, err = mintc.SolveEngineCertified(ctx, name, cc.Overlay(), eopts, mintc.CertifyPolicy{})
	} else {
		res, err = mintc.SolveEngine(ctx, name, cc.Overlay(), eopts)
	}
	if err != nil {
		if res != nil && cfg.certify {
			printCertificate(res)
		}
		if res != nil && cfg.stats {
			fmt.Printf("partial stats: %s\n", res.Stats)
		}
		return nil, err
	}
	// Dispatch on the detail type, not the requested engine: the
	// certified path may have fallen down the degradation ladder onto a
	// different engine (e.g. a schedule objective asked of mcr is
	// answered by the LP rung), and the trail below reports how.
	switch r := res.Detail.(type) {
	case *mintc.Result:
		fmt.Print(r.Report())
		if !r.Objective.IsMinTc() {
			fmt.Printf("objective %s achieved: %.6g\n", r.Objective, r.ObjectiveValue)
		}
	case *mintc.DecompResult:
		printDecomp(r) // large circuit: mlp routed through the decomposed solver
	case *mintc.MCRResult:
		fmt.Printf("optimal Tc = %.6g (min-cycle-ratio engine, %d probes)\n", r.Tc, r.Probes)
		if len(r.CriticalLoop) > 0 {
			fmt.Printf("critical loop: %v (ratio %.6g)\n", r.CriticalLoop, r.CriticalRatio)
			fmt.Print(r.Explain())
		}
		fmt.Println(r.Schedule)
	case *mintc.NRIPResult:
		fmt.Printf("NRIP engine: Tc = %.6g (edge-triggered start %.6g, borrowing gain %.6g)\n",
			r.Schedule.Tc, r.EdgeTriggeredTc, r.BorrowingGain)
		fmt.Println(r.Schedule)
	case *mintc.EdgeTriggeredResult:
		fmt.Printf("edge-triggered engine: Tc = %.6g (%d constraints, %d pivots)\n",
			r.Schedule.Tc, r.NumConstraints, r.Pivots)
		fmt.Println(r.Schedule)
	case *mintc.SimDetail:
		fmt.Printf("sim engine: simulated the MLP-optimal schedule, Tc = %.6g\n", res.Tc)
		fmt.Println(res.Schedule)
		tr := r.Trace
		switch {
		case len(tr.Violations) > 0:
			fmt.Printf("simulation: %d violations (first: %s)\n", len(tr.Violations), tr.Violations[0])
		case tr.ConvergedAt < 0:
			fmt.Printf("simulation: no periodic steady state (drift %.6g per cycle)\n", tr.Drift())
		default:
			fmt.Printf("simulation: clean; steady state from cycle %d\n", tr.ConvergedAt)
		}
	}
	if cfg.certify {
		printCertificate(res)
	}
	if cfg.stats {
		fmt.Printf("stats: %s\n", res.Stats)
	}
	return res, nil
}

// printDecomp reports the decomposed solver's result: the certified
// optimum plus the per-component breakdown.
func printDecomp(r *mintc.DecompResult) {
	fmt.Printf("optimal Tc = %.6g (decomposed: %d components, %d re-solved, %d closed-form, %d probes)\n",
		r.Tc, r.Components, r.Resolved, r.FastPaths, r.Probes)
	if r.ProbeRounds > 0 {
		fmt.Printf("probe: %d relaxation rounds, %d fanned out across workers, %d warm-potential starts\n",
			r.ProbeRounds, r.ProbeParallelRounds, r.WarmPotentialHits)
	}
	if len(r.CriticalArcs) > 0 {
		fmt.Printf("critical cycle: %d arcs, ratio %.6g\n", len(r.CriticalArcs), r.CriticalRatio)
	}
	fmt.Println(r.Schedule)
}

// printCertificate reports the independent checker's verdict, the LP
// duality gap when the solve carried one, and — whenever more than a
// clean first rung ran — the degradation-ladder trail.
func printCertificate(res *mintc.EngineResult) {
	cert := res.Certificate
	fmt.Printf("certificate: %s\n", cert)
	if cert != nil && !math.IsNaN(cert.DualityGap) {
		fmt.Printf("  duality gap: %.3g\n", cert.DualityGap)
	}
	if len(res.Trail) > 1 || (len(res.Trail) == 1 && !res.Trail[0].Certified) {
		fmt.Println("  fallback trail:")
		for _, a := range res.Trail {
			status := "certified"
			switch {
			case a.Err != "":
				status = "failed: " + a.Err
			case a.Rejected != "":
				status = "rejected: " + a.Rejected
			}
			fmt.Printf("    %-6s (engine %s): %s\n", a.Rung, a.Engine, status)
		}
	}
}

// loadCircuit reads the circuit from an .smo file or, with -gnl, from
// a gate-level netlist followed by timing-model extraction.
func loadCircuit(file string, cfg config) (*mintc.Circuit, error) {
	var r *os.File
	if file == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if !cfg.gnl {
		return mintc.ParseCircuit(r)
	}
	nl, err := mintc.ParseNetlist(r)
	if err != nil {
		return nil, err
	}
	var m mintc.DelayModel
	switch cfg.model {
	case "unit":
		m = mintc.UnitDelay
	case "linear", "":
		m = mintc.LinearDelay
	case "elmore":
		m = mintc.ElmoreDelay
	default:
		return nil, fmt.Errorf("unknown delay model %q (want unit, linear or elmore)", cfg.model)
	}
	c, info, err := nl.Extract(m, mintc.IOPolicy{})
	if err != nil {
		return nil, err
	}
	fmt.Printf("extracted %d synchronizers, %d stages (max gate depth %d) using the %s model\n",
		c.L(), info.Stages, info.MaxDepth, m.Name())
	return c, nil
}

func runParametric(c *mintc.Circuit, cfg config) error {
	if cfg.parametric >= len(c.Paths()) {
		return fmt.Errorf("path index %d out of range (circuit has %d paths)", cfg.parametric, len(c.Paths()))
	}
	p := c.Paths()[cfg.parametric]
	fmt.Printf("parametric sweep of path %d (%s -> %s) over [0, %g]:\n",
		cfg.parametric, c.SyncName(p.From), c.SyncName(p.To), cfg.paramTo)
	segs, err := mintc.ParametricDelay(c, cfg.opts, cfg.parametric, 0, cfg.paramTo)
	if err != nil {
		return err
	}
	for _, s := range segs {
		fmt.Printf("  delay in [%8.4g, %8.4g]: Tc* = %.6g + %.4g*(delay - %.6g)\n",
			s.From, s.To, s.TcAtFrom, s.Slope, s.From)
	}
	if bps := mintc.Breakpoints(segs); len(bps) > 0 {
		fmt.Printf("breakpoints: %v\n", bps)
	}
	return nil
}

func runCheck(c *mintc.Circuit, schedFile string, opts mintc.Options, simulate bool) error {
	f, err := os.Open(schedFile)
	if err != nil {
		return err
	}
	defer f.Close()
	sched, err := mintc.ParseSchedule(f, c.K())
	if err != nil {
		return err
	}
	an, err := mintc.CheckTc(c, sched, opts)
	if err != nil {
		return err
	}
	if an.Feasible {
		fmt.Printf("PASS: schedule %v satisfies all timing constraints\n", sched)
	} else {
		fmt.Printf("FAIL: schedule %v violates timing constraints:\n", sched)
		for _, v := range an.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if an.D != nil {
		fmt.Println("setup slacks:")
		for i, s := range an.SetupSlack {
			fmt.Printf("  %-12s %9.6g\n", c.SyncName(i), s)
		}
	}
	if simulate {
		if err := runSim(c, sched); err != nil {
			return err
		}
	}
	if !an.Feasible {
		os.Exit(1)
	}
	return nil
}

func runSim(c *mintc.Circuit, sched *mintc.Schedule) error {
	tr, err := mintc.Simulate(c, sched, mintc.SimConfig{})
	if err != nil {
		return err
	}
	switch {
	case len(tr.Violations) > 0:
		fmt.Printf("simulation: %d violations (first: %s)\n", len(tr.Violations), tr.Violations[0])
	case tr.ConvergedAt < 0:
		fmt.Printf("simulation: no periodic steady state (drift %.6g per cycle)\n", tr.Drift())
	default:
		fmt.Printf("simulation: clean; steady state from cycle %d, departures %v\n", tr.ConvergedAt, tr.SteadyD)
	}
	return nil
}
