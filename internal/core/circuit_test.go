package core

import (
	"strings"
	"testing"
)

func twoPhaseLoop() *Circuit {
	c := NewCircuit(2)
	a := c.AddLatch("A", 0, 1, 2)
	b := c.AddLatch("B", 1, 1, 2)
	c.AddPath(a, b, 10)
	c.AddPath(b, a, 10)
	return c
}

func TestNewCircuitBasics(t *testing.T) {
	c := NewCircuit(3)
	if c.K() != 3 {
		t.Fatalf("K = %d, want 3", c.K())
	}
	if c.PhaseName(0) != "phi1" || c.PhaseName(2) != "phi3" {
		t.Errorf("default phase names wrong: %s %s", c.PhaseName(0), c.PhaseName(2))
	}
	c.SetPhaseName(1, "precharge")
	if c.PhaseName(1) != "precharge" {
		t.Errorf("SetPhaseName did not stick")
	}
}

func TestNewCircuitZeroPhasesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCircuit(0) did not panic")
		}
	}()
	NewCircuit(0)
}

func TestAddLatchBadPhasePanics(t *testing.T) {
	c := NewCircuit(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range phase")
		}
	}()
	c.AddLatch("X", 5, 1, 1)
}

func TestAddPathBadIndexPanics(t *testing.T) {
	c := NewCircuit(1)
	c.AddLatch("A", 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown synchronizer")
		}
	}()
	c.AddPath(0, 3, 1)
}

func TestFaninTracking(t *testing.T) {
	c := NewCircuit(2)
	a := c.AddLatch("A", 0, 1, 1)
	b := c.AddLatch("B", 1, 1, 1)
	x := c.AddLatch("X", 1, 1, 1)
	c.AddPath(a, x, 5)
	c.AddPath(b, x, 6)
	if got := len(c.Fanin(x)); got != 2 {
		t.Fatalf("fanin(X) = %d, want 2", got)
	}
	if got := len(c.Fanin(a)); got != 0 {
		t.Fatalf("fanin(A) = %d, want 0", got)
	}
	if c.MaxFanin() != 2 {
		t.Errorf("MaxFanin = %d, want 2", c.MaxFanin())
	}
}

func TestCMatrix(t *testing.T) {
	c := NewCircuit(3)
	m := c.CMatrix()
	want := [][]int{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Errorf("C[%d][%d] = %d, want %d", i, j, m[i][j], want[i][j])
			}
		}
	}
}

func TestKMatrixExample1Shape(t *testing.T) {
	c := twoPhaseLoop()
	m := c.KMatrix()
	// Paths go phi1->phi2 and phi2->phi1.
	if m[0][1] != 1 || m[1][0] != 1 {
		t.Errorf("K = %v, want ones at (0,1),(1,0)", m)
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Errorf("K diagonal should be zero: %v", m)
	}
}

func TestKMatrixSamePhasePath(t *testing.T) {
	c := NewCircuit(2)
	a := c.AddLatch("A", 0, 1, 1)
	b := c.AddLatch("B", 0, 1, 1)
	c.AddPath(a, b, 3)
	if m := c.KMatrix(); m[0][0] != 1 {
		t.Errorf("same-phase path must set K[0][0]: %v", m)
	}
}

func TestValidateOK(t *testing.T) {
	if err := twoPhaseLoop().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateEmptyCircuit(t *testing.T) {
	if err := NewCircuit(2).Validate(); err == nil {
		t.Fatal("empty circuit validated")
	}
}

func TestValidateDQLessThanSetup(t *testing.T) {
	c := NewCircuit(1)
	c.AddLatch("A", 0, 5, 3) // DQ < setup violates the model assumption
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "DQ") {
		t.Fatalf("want ΔDQ >= ΔDC violation, got %v", err)
	}
}

func TestValidateFFMayHaveSmallCQ(t *testing.T) {
	// The DQ >= setup assumption is latch-specific; FFs are exempt.
	c := NewCircuit(1)
	c.AddFF("F", 0, 5, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("FF with CQ < setup should validate: %v", err)
	}
}

func TestValidateNegativeDelay(t *testing.T) {
	c := NewCircuit(1)
	a := c.AddLatch("A", 0, 1, 1)
	c.AddPathFull(Path{From: a, To: a, Delay: -3, MinDelay: -3})
	if err := c.Validate(); err == nil {
		t.Fatal("negative delay validated")
	}
}

func TestValidateMinDelayAboveMax(t *testing.T) {
	c := NewCircuit(1)
	a := c.AddLatch("A", 0, 1, 1)
	c.AddPathFull(Path{From: a, To: a, Delay: 3, MinDelay: 7})
	if err := c.Validate(); err == nil {
		t.Fatal("MinDelay > Delay validated")
	}
}

func TestValidateNegativeSetup(t *testing.T) {
	c := NewCircuit(1)
	c.AddSync(Synchronizer{Name: "A", Phase: 0, Kind: Latch, Setup: -1, DQ: 2})
	if err := c.Validate(); err == nil {
		t.Fatal("negative setup validated")
	}
}

func TestMinDelayDefaultsToDelay(t *testing.T) {
	c := NewCircuit(1)
	a := c.AddLatch("A", 0, 1, 1)
	p := c.AddPath(a, a, 9)
	if got := c.Paths()[p].MinDelay; got != 9 {
		t.Errorf("MinDelay = %g, want 9 (defaulted)", got)
	}
}

func TestSyncName(t *testing.T) {
	c := NewCircuit(1)
	c.AddLatch("regfile", 0, 1, 1)
	c.AddLatch("", 0, 1, 1)
	if c.SyncName(0) != "regfile" {
		t.Errorf("SyncName(0) = %q", c.SyncName(0))
	}
	if c.SyncName(1) != "L2" {
		t.Errorf("SyncName(1) = %q, want L2", c.SyncName(1))
	}
}

func TestElementKindString(t *testing.T) {
	if Latch.String() != "latch" || FlipFlop.String() != "ff" {
		t.Error("ElementKind.String wrong")
	}
	if s := ElementKind(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestConstraintCountBound(t *testing.T) {
	c := twoPhaseLoop()
	// k=2, l=2, F=1: 4*2 + 2*2 = 12.
	if got := ConstraintCountBound(c); got != 12 {
		t.Errorf("bound = %d, want 12", got)
	}
}

func TestCircuitClone(t *testing.T) {
	c := example1(80)
	c.Meta = map[string]string{"k": "v"}
	c.SetPhaseName(0, "alpha")
	cp := c.Clone()
	if cp.K() != c.K() || cp.L() != c.L() || len(cp.Paths()) != len(c.Paths()) {
		t.Fatal("clone structure differs")
	}
	if cp.PhaseName(0) != "alpha" || cp.Meta["k"] != "v" {
		t.Fatal("clone lost names/meta")
	}
	// Independence.
	cp.SetPathDelay(0, 999)
	cp.Meta["k"] = "other"
	if c.Paths()[0].Delay == 999 || c.Meta["k"] == "other" {
		t.Fatal("clone shares storage")
	}
	r1, err := MinTc(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := c.Clone()
	r2, err := MinTc(c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Schedule.Equal(r2.Schedule, 1e-12) {
		t.Fatal("clone solves differently")
	}
}
