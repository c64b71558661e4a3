// Command smoconvert re-clocks an edge-triggered design with
// transparent latches and picks a production schedule for it.
//
// The input is a .smo circuit (typically flip-flops on a single-phase
// clock — the classic edge-triggered methodology). The tool
//
//  1. computes the edge-triggered baseline cycle time (the fastest the
//     design can run without borrowing),
//  2. converts every flip-flop into its master/slave latch pair on a
//     doubled clock (ConvertToLatches), opening each register boundary
//     to cycle stealing,
//  3. solves the converted circuit for its latch-optimal minimum cycle
//     time through the certified engine path (the answer is
//     independently re-checked against the paper's constraint system
//     and the LP duality gap), and
//  4. designs the shipping schedule at a chosen cycle time with a
//     schedule objective: maximize the worst setup margin (default),
//     minimize the total phase width, or maximize the tolerated clock
//     skew. The chosen schedule is re-verified with checkTc.
//
// By default the shipping cycle time is the edge-triggered baseline —
// "keep the old clock period, bank the borrowing gain as margin".
// Pin a faster target with -tc (any value down to the printed
// latch-optimal minimum is feasible).
//
//	smoconvert -f design.smo
//	smoconvert -f design.smo -objective skew -tc 11
//	smoconvert -f design.smo -o latched.smo -sched clock.smo
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"mintc"
)

func main() {
	var (
		file      = flag.String("f", "", "edge-triggered circuit description (.smo); '-' for stdin")
		objective = flag.String("objective", "margin", "schedule objective at the target Tc: margin, width or skew")
		targetTc  = flag.Float64("tc", 0, "target cycle time for the shipping schedule (default: the edge-triggered baseline)")
		outFile   = flag.String("o", "", "write the converted latch circuit (.smo) to this file")
		schedFile = flag.String("sched", "", "write the chosen schedule to this file")
		diagram   = flag.Bool("diagram", false, "print an ASCII timing diagram of the chosen schedule")
		minWidth  = flag.Float64("minwidth", 0, "minimum phase width")
		minSep    = flag.Float64("minsep", 0, "minimum separation between I/O phase pairs")
		skew      = flag.Float64("skew", 0, "clock skew margin")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "smoconvert: -f <circuit.smo> is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		objective: *objective, targetTc: *targetTc,
		outFile: *outFile, schedFile: *schedFile, diagram: *diagram,
		opts: mintc.Options{MinPhaseWidth: *minWidth, MinSeparation: *minSep, Skew: *skew},
	}
	if err := run(*file, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "smoconvert: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	objective          string
	targetTc           float64
	outFile, schedFile string
	diagram            bool
	opts               mintc.Options
}

func run(file string, cfg config) error {
	c, err := loadCircuit(file)
	if err != nil {
		return err
	}
	ffs := 0
	for _, s := range c.Syncs() {
		if s.Kind == mintc.FlipFlop {
			ffs++
		}
	}
	fmt.Printf("input: %d-phase clock, %d synchronizers (%d flip-flops), %d paths\n",
		c.K(), c.L(), ffs, len(c.Paths()))
	if ffs == 0 {
		fmt.Println("note: no flip-flops to convert; doubling the clock anyway")
	}

	// 1. The edge-triggered baseline: how fast the design runs as-is.
	et, err := mintc.MinTcEdgeTriggered(c, cfg.opts)
	if err != nil {
		return fmt.Errorf("edge-triggered baseline: %w", err)
	}
	fmt.Printf("edge-triggered baseline: Tc = %.6g\n", et.Schedule.Tc)

	// 2. Convert flip-flops to master/slave latch pairs.
	conv, err := mintc.ConvertToLatches(c)
	if err != nil {
		return err
	}
	lc := conv.Circuit
	fmt.Printf("converted: %d-phase clock, %d latches, %d paths (%d flip-flops split)\n",
		lc.K(), lc.L(), len(lc.Paths()), conv.FFs)

	// 3. Latch-optimal minimum cycle time, certified.
	minRes, err := certifiedSolve(lc, cfg.opts)
	if err != nil {
		return fmt.Errorf("latch-optimal solve: %w", err)
	}
	gain := et.Schedule.Tc - minRes.Tc
	fmt.Printf("latch-optimal: Tc = %.6g (certified: %s) — borrowing gain %.6g (%.1f%%)\n",
		minRes.Tc, verdict(minRes), gain, 100*gain/et.Schedule.Tc)

	// 4. The shipping schedule at the target Tc under the chosen
	// objective.
	target := cfg.targetTc
	if target == 0 {
		target = et.Schedule.Tc
	}
	if target < minRes.Tc {
		return fmt.Errorf("target Tc %.6g is below the latch-optimal minimum %.6g", target, minRes.Tc)
	}
	var obj mintc.Objective
	switch cfg.objective {
	case "margin":
		obj = mintc.MaxMarginAtTc(target)
	case "width":
		obj = mintc.MinPhaseWidthAtTc(target)
	case "skew":
		obj = mintc.MaxSkewBudgetAtTc(target)
	default:
		return fmt.Errorf("unknown -objective %q (want margin, width or skew)", cfg.objective)
	}
	opts2 := cfg.opts
	opts2.Objective = obj
	shipRes, err := certifiedSolve(lc, opts2)
	if err != nil {
		return fmt.Errorf("schedule objective %s: %w", obj, err)
	}
	r, ok := shipRes.Detail.(*mintc.Result)
	if !ok {
		return fmt.Errorf("schedule objective %s: unexpected result detail %T", obj, shipRes.Detail)
	}
	fmt.Printf("shipping schedule (%s, certified: %s): %s = %.6g\n",
		obj, verdict(shipRes), objectiveNoun(cfg.objective), r.ObjectiveValue)
	fmt.Println(shipRes.Schedule)

	// Re-verify the chosen schedule with the analysis side (checkTc).
	an, err := mintc.CheckTc(lc, shipRes.Schedule, cfg.opts)
	if err != nil {
		return err
	}
	if !an.Feasible {
		fmt.Println("checkTc: FAIL")
		for _, v := range an.Violations {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("checkTc: PASS")

	if cfg.diagram {
		fmt.Println()
		fmt.Print(mintc.RenderDiagram(lc, shipRes.Schedule, shipRes.D, mintc.RenderOptions{Cycles: 2}))
	}
	if cfg.outFile != "" {
		if err := writeFile(cfg.outFile, func(f *os.File) error { return mintc.WriteCircuit(f, lc) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.outFile)
	}
	if cfg.schedFile != "" {
		if err := writeFile(cfg.schedFile, func(f *os.File) error { return mintc.WriteSchedule(f, shipRes.Schedule) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.schedFile)
	}
	return nil
}

// certifiedSolve runs the mlp engine on a frozen snapshot of c through
// the degradation supervisor, so every number printed above is
// independently re-checked.
func certifiedSolve(c *mintc.Circuit, opts mintc.Options) (*mintc.EngineResult, error) {
	cc, err := mintc.Freeze(c)
	if err != nil {
		return nil, err
	}
	eopts := mintc.EngineOptions{Core: opts, Seed: 1}
	return mintc.SolveEngineCertified(context.Background(), "mlp", cc.Overlay(), eopts, mintc.CertifyPolicy{})
}

// verdict summarizes a certificate for the one-line reports.
func verdict(res *mintc.EngineResult) string {
	cert := res.Certificate
	if cert == nil {
		return "no certificate"
	}
	if !cert.Certified() {
		return "REJECTED"
	}
	if !math.IsNaN(cert.DualityGap) {
		return fmt.Sprintf("ok, duality gap %.3g", cert.DualityGap)
	}
	return "ok"
}

func objectiveNoun(obj string) string {
	switch obj {
	case "width":
		return "total phase width"
	case "skew":
		return "tolerated extra skew"
	}
	return "worst setup margin"
}

func writeFile(name string, write func(*os.File) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadCircuit(file string) (*mintc.Circuit, error) {
	if file == "-" {
		return mintc.ParseCircuit(os.Stdin)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mintc.ParseCircuit(f)
}
