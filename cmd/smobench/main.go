// Command smobench regenerates the tables and figures of the paper's
// evaluation as text reports.
//
//	smobench -all            # everything, in paper order
//	smobench -fig 7          # one figure (3, 4, 5, 6, 7, 8, 9, 10, 11)
//	smobench -table 1        # Table I
//	smobench -claims         # the quantitative §IV-V side claims
//	smobench -bench out/     # machine-readable engine benchmarks (JSON)
//	smobench -compare old new # wall-clock ratio table between two record sets
//
// The -bench mode sweeps the internal/gen benchmark suite through the
// engine registry and writes one BENCH_<circuit>_<engine>.json per run
// (cycle time, wall-clock, pivot/iteration counters, stage timings).
// Every benchmark solve runs through the degradation supervisor, so
// each record also carries the certification verdict, the "verify"
// stage cost and the fallback/verify-failure/panic counters. A solve
// that hits -timeout records the budget in the structured timeout_s
// field. Restrict the sweep with -engines and bound each solve with
// -timeout; -xl adds the 512/10k workloads, -xxl adds the 100k ones
// and overrides the known-slow (engine, circuit) skip table.
//
// EXPERIMENTS.md records this command's output next to the paper's
// numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mintc/internal/experiments"
	"mintc/internal/lp"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		fig     = flag.Int("fig", 0, "reproduce one figure (3-11)")
		table   = flag.Int("table", 0, "reproduce one table (1)")
		claims  = flag.Bool("claims", false, "verify the quantitative side claims")
		stats   = flag.Bool("stats", false, "iteration/pivot statistics over random circuits")
		cache   = flag.Bool("cache", false, "GaAs cache-speed margin study (parametric)")
		mcm     = flag.Bool("mcm", false, "GaAs chip-crossing / multichip-module study")
		borrow  = flag.Bool("borrowing", false, "time-borrowing study on Example 1")
		check   = flag.Bool("checklist", false, "machine-checked reproduction checklist")
		outDir  = flag.String("o", "", "write all reports and graphical artifacts into this directory")
		htmlTo  = flag.String("html", "", "write the artifact bundle plus a browsable index.html into this directory")
		bench   = flag.String("bench", "", "write BENCH_<circuit>_<engine>.json benchmark records into this directory")
		engines = flag.String("engines", "", "comma-separated engine names for -bench (default: all registered)")
		circs   = flag.String("circuits", "", "comma-separated circuit names to restrict -bench to (default: the whole selected suite)")
		timeout = flag.Duration("timeout", 0, "per-solve deadline for -bench (0 = none)")
		trials  = flag.Int("trials", 0, "Monte-Carlo trials for the sim engine during -bench (0 = skip MC)")
		xl      = flag.Bool("xl", false, "include the oversized (>=512-latch) workloads in -bench")
		xxl     = flag.Bool("xxl", false, "include the 100k-synchronizer workloads in -bench and run even the known-slow (engine, circuit) pairs")
		compare = flag.Bool("compare", false, "compare two benchmark record sets: smobench -compare old new (directories of BENCH_*.json, or single records)")
		sweepB  = flag.String("sweepbench", "", "write delay-sweep records (SWEEP_*.json: the library sweep vs one cold MCR solve per value) into this directory")
		lpName  = flag.String("lp", "", "LP solver for every solve: revised (default) or dense")
		profile = flag.String("profile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	if *lpName != "" {
		if err := lp.SetDefaultSolver(*lpName); err != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
			os.Exit(2)
		}
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
			os.Exit(1)
		}
		// Flushed on every successful path; error paths os.Exit and
		// forfeit the profile, which is fine for a diagnostics flag.
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Like -profile: written on successful completion, forfeited by
		// os.Exit error paths. The GC beforehand makes the profile show
		// live steady-state memory, not whatever garbage the last solve
		// left behind.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
			}
			f.Close()
		}()
	}

	var (
		out string
		err error
	)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "smobench: -compare needs exactly two arguments: old and new record sets")
			os.Exit(2)
		}
		out, cerr := runCompare(flag.Arg(0), flag.Arg(1))
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", cerr)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	case *sweepB != "":
		files, serr := runSweepBench(*sweepB)
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		if serr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", serr)
			os.Exit(1)
		}
		return
	case *bench != "":
		// Resolve -engines before any benchmarking work so a typo in
		// the engine list fails fast instead of surfacing mid-sweep.
		names, perr := parseEngines(*engines)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", perr)
			os.Exit(2)
		}
		files, berr := runBench(*bench, names, *circs, *timeout, *trials, *xl, *xxl)
		if berr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", berr)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	case *htmlTo != "":
		idx, herr := experiments.WriteHTMLReport(*htmlTo)
		if herr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", herr)
			os.Exit(1)
		}
		fmt.Println("wrote", idx)
		return
	case *outDir != "":
		files, werr := experiments.WriteArtifacts(*outDir)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "smobench: %v\n", werr)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	case *all:
		out, err = experiments.All()
	case *stats:
		out, err = experiments.Stats()
	case *cache:
		out, err = experiments.CacheStudy()
	case *mcm:
		out, err = experiments.MCMStudy()
	case *borrow:
		out, err = experiments.BorrowingStudy()
	case *check:
		out, err = experiments.ChecklistReport()
	case *claims:
		out, err = experiments.Claims()
	case *table == 1:
		out, err = experiments.TableI()
	case *fig != 0:
		figs := map[int]func() (string, error){
			3: experiments.Fig3, 4: experiments.Fig4, 5: experiments.Fig5,
			6: experiments.Fig6, 7: experiments.Fig7, 8: experiments.Fig8,
			9: experiments.Fig9, 10: experiments.Fig10, 11: experiments.Fig11,
		}
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "smobench: no figure %d (have 3-11)\n", *fig)
			os.Exit(2)
		}
		out, err = f()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "smobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out)
}
