package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

func genCircuits() []gen.Benchmark {
	return append(append(gen.Suite(), gen.XLarge()...), gen.Huge()...)
}

// addOneByOne builds c's copy the incremental way: NewCircuit, then
// AddSync and AddPathFull per element.
func addOneByOne(k int, syncs []core.Synchronizer, paths []core.Path) *core.Circuit {
	c := core.NewCircuit(k)
	for _, s := range syncs {
		c.AddSync(s)
	}
	for _, p := range paths {
		c.AddPathFull(p)
	}
	return c
}

func sameStructure(t *testing.T, name string, got, want *core.Circuit) {
	t.Helper()
	if got.K() != want.K() || !reflect.DeepEqual(got.Syncs(), want.Syncs()) || !reflect.DeepEqual(got.Paths(), want.Paths()) {
		t.Fatalf("%s: synchronizers or paths differ", name)
	}
	for i := 0; i < want.L(); i++ {
		if !reflect.DeepEqual(got.Fanin(i), want.Fanin(i)) {
			t.Fatalf("%s: fanin of %d is %v, want %v", name, i, got.Fanin(i), want.Fanin(i))
		}
	}
	if got.MaxFanin() != want.MaxFanin() {
		t.Fatalf("%s: max fanin %d, want %d", name, got.MaxFanin(), want.MaxFanin())
	}
}

// TestBuildMatchesIncremental: Build, and Clone through it, give every
// generated circuit the same synchronizers, paths and fanin lists as
// adding the elements one by one.
func TestBuildMatchesIncremental(t *testing.T) {
	for _, b := range genCircuits() {
		c := b.Circuit
		want := addOneByOne(c.K(), c.Syncs(), c.Paths())
		sameStructure(t, b.Name, core.Build(c.K(), slices.Clone(c.Syncs()), slices.Clone(c.Paths())), want)
		sameStructure(t, b.Name+" clone", c.Clone(), want)
	}
}

// TestBuildNormalizesMinDelay: a negative MinDelay becomes Delay, as
// AddPathFull makes it.
func TestBuildNormalizesMinDelay(t *testing.T) {
	syncs := []core.Synchronizer{{Name: "a"}, {Name: "b", Phase: 1}}
	paths := []core.Path{{From: 0, To: 1, Delay: 5, MinDelay: -1}, {From: 1, To: 0, Delay: 3, MinDelay: 2}, {From: 1, To: 1, Delay: 4, MinDelay: -7}}
	want := addOneByOne(2, syncs, paths)
	sameStructure(t, "min delay", core.Build(2, slices.Clone(syncs), slices.Clone(paths)), want)
}

// TestBuildFaninRowsCapped: adding a path after Build grows only the
// row it lands in, never the next row sharing the backing array.
func TestBuildFaninRowsCapped(t *testing.T) {
	syncs := []core.Synchronizer{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	paths := []core.Path{{From: 0, To: 0, Delay: 1}, {From: 1, To: 1, Delay: 1}, {From: 2, To: 2, Delay: 1}}
	c := core.Build(1, syncs, paths)
	c.AddPath(2, 0, 7)
	c.AddPath(2, 1, 8)
	want := [][]int{{0, 3}, {1, 4}, {2}}
	for i, w := range want {
		if !reflect.DeepEqual(c.Fanin(i), w) {
			t.Errorf("fanin of %d is %v, want %v", i, c.Fanin(i), w)
		}
	}
}

// TestBuildPanicsLikeAdd: Build rejects a bad phase or path endpoint
// with the message AddSync or AddPathFull would panic with.
func TestBuildPanicsLikeAdd(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	badSync := []core.Synchronizer{{Name: "a"}, {Name: "z", Phase: 2}}
	badPath := []core.Path{{From: 0, To: 3, Delay: 1}}
	cases := []struct {
		syncs []core.Synchronizer
		paths []core.Path
	}{{badSync, nil}, {badSync[:1], badPath}}
	for _, tc := range cases {
		got := panicOf(func() { core.Build(2, slices.Clone(tc.syncs), slices.Clone(tc.paths)) })
		want := panicOf(func() { addOneByOne(2, tc.syncs, tc.paths) })
		if got == "" || got != want {
			t.Errorf("Build panicked with %q, the one-by-one build with %q", got, want)
		}
	}
}

// TestFreezePhaseOrderMatchesStableSort: Freeze's counting sort orders
// every generated circuit's synchronizers exactly as a stable sort by
// phase does.
func TestFreezePhaseOrderMatchesStableSort(t *testing.T) {
	for _, b := range genCircuits() {
		c := b.Circuit
		want := make([]int, c.L())
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return c.Sync(want[x]).Phase < c.Sync(want[y]).Phase })
		if got := c.MustFreeze().PhaseOrder(); !slices.Equal(got, want) {
			t.Fatalf("%s: phase order differs from the stable sort", b.Name)
		}
	}
}
