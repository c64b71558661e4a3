package core_test

import (
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
)

// coldPartitionAllocs counts the objects a snapshot's first Partition
// call allocates on circuit c (one fresh snapshot per call).
func coldPartitionAllocs(c *core.Circuit) float64 {
	const runs = 4
	ccs := make([]*core.Compiled, runs+1) // AllocsPerRun adds a warm-up call
	for i := range ccs {
		ccs[i] = c.MustFreeze()
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		ccs[next].Partition()
		next++
	})
}

// TestPartitionColdAllocs pins the allocation count of computing a
// snapshot's latch-graph partition: the Tarjan pass runs on a flat CSR
// with every buffer sized up front and stores all components' members
// in one array, so the count is the same fixed set of slices on
// Example 1 (4 synchronizers) and on rand-huge-10k (10,000 in
// thousands of components). A slice per component would add
// thousands.
func TestPartitionColdAllocs(t *testing.T) {
	const ceiling = 24
	var huge *core.Circuit
	for _, bm := range gen.Huge() {
		if bm.Name == "rand-huge-10k" {
			huge = bm.Circuit
		}
	}
	small := coldPartitionAllocs(circuits.Example1(80))
	large := coldPartitionAllocs(huge)
	t.Logf("allocs per cold partition: example1-80 %.0f, rand-huge-10k %.0f (%d components)",
		small, large, huge.MustFreeze().Partition().NumComponents())
	if large > ceiling {
		t.Errorf("cold partition of rand-huge-10k allocates %.0f objects, ceiling %d", large, ceiling)
	}
	// AllocsPerRun reads process-wide counters, so allow a stray runtime
	// allocation.
	if large > small+2 {
		t.Errorf("cold partition allocations grow with the circuit: %.0f (example1-80) -> %.0f (rand-huge-10k)", small, large)
	}
}
