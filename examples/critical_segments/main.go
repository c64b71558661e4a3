// Critical segments: the paper's observation (§V, Example 2) that
// latch-controlled circuits have no single critical path — criticality
// spreads over several disjoint combinational *segments* — plus the
// parametric analysis its conclusion proposes to quantify them.
//
// This example takes the paper's Example 2 circuit, lists the binding
// constraints with their duals (dTc*/dDelay), then sweeps one critical
// block's delay parametrically to map the piecewise-linear response of
// the optimal cycle time, and finally re-checks a frozen snapshot
// through delay overlays to scan a whole delay range at high
// resolution cheaply.
//
// Run with: go run ./examples/critical_segments
package main

import (
	"fmt"
	"log"

	"mintc"
)

func main() {
	c := mintc.PaperExample2()
	res, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Example 2: optimal Tc = %.6g ns\n\n", res.Schedule.Tc)

	fmt.Println("critical segments (binding constraints with nonzero duals):")
	segs := res.CriticalSegments(false)
	for _, s := range segs {
		fmt.Printf("  %-24s dTc*/dDelay = %6.3f   valid for RHS in [%.4g, %.4g]\n",
			s.Row.Name, s.Dual, s.RHSLow, s.RHSHigh)
	}
	fmt.Println("\nFractional duals mean the delay is shared across clock cycles")
	fmt.Println("(borrowing); several disjoint segments are critical at once.")

	// Pick the most critical combinational block and sweep it
	// parametrically. Latch rows (L1-L3) bind no path (Row.Path < 0),
	// so skip to the first segment that names one.
	path := -1
	for _, s := range segs {
		if s.Row.Path >= 0 {
			path = s.Row.Path
			break
		}
	}
	if path < 0 {
		log.Fatal("no critical path segment")
	}
	p := c.Paths()[path]
	fmt.Printf("\nparametric sweep of %s -> %s (current delay %g):\n",
		c.SyncName(p.From), c.SyncName(p.To), p.Delay)
	pieces, err := mintc.ParametricDelay(c, mintc.Options{}, path, 0, 120)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range pieces {
		fmt.Printf("  delay in [%6.4g, %6.4g]: Tc* = %.6g + %.4g*(d - %.6g)\n",
			s.From, s.To, s.TcAtFrom, s.Slope, s.From)
	}
	fmt.Printf("breakpoints: %v\n", mintc.Breakpoints(pieces))

	// High-resolution what-if scan over a frozen snapshot: how much can
	// this block slow down before the *current* schedule (not a
	// re-optimized one) fails? Each probe checks an overlay carrying one
	// edited delay; the snapshot's compiled analysis is reused.
	cc, err := mintc.Freeze(c)
	if err != nil {
		log.Fatal(err)
	}
	slackOf := func(pathIdx int) float64 {
		base := c.Paths()[pathIdx].Delay
		limit := base
		for d := base; d <= base+120; d += 0.25 {
			an, err := mintc.CheckTcOverlay(cc.Overlay().With(pathIdx, d), res.Schedule, mintc.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if !an.Feasible {
				break
			}
			limit = d
		}
		return limit - base
	}
	fmt.Println("\nfixed-schedule delay slack per block (how much each block may slow")
	fmt.Println("down before the unchanged optimal schedule fails timing):")
	for i, q := range c.Paths() {
		fmt.Printf("  %-12s %6.4g ns\n", fmt.Sprintf("%s->%s", c.SyncName(q.From), c.SyncName(q.To)), slackOf(i))
	}
	fmt.Println("critical blocks show zero slack; subcritical ones show the margin")
	fmt.Println("the paper's slack-variable discussion predicts.")
}
