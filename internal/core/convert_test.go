// ConvertToLatches: the edge-triggered → level-sensitive rewrite. The
// structural half checks the master/slave split literally; the
// semantic half checks the conversion's one theorem — the converted
// circuit's optimum never exceeds the edge-triggered baseline — and
// that a mixed design with unbalanced stages gains strictly.
package core_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/ettf"
)

// mixedLoop is the examples/edge_pipeline.smo design: a two-phase loop
// alternating transparent latches and flip-flops with unbalanced stage
// delays, so the flip-flop boundaries are the only thing stopping the
// latches from averaging the loop.
func mixedLoop() *core.Circuit {
	c := core.NewCircuit(2)
	l1 := c.AddLatch("L1", 0, 0.5, 1)
	f2 := c.AddFF("F2", 1, 0.5, 1)
	l3 := c.AddLatch("L3", 0, 0.5, 1)
	f4 := c.AddFF("F4", 1, 0.5, 1)
	c.AddPath(l1, f2, 12)
	c.AddPath(f2, l3, 2)
	c.AddPath(l3, f4, 9)
	c.AddPath(f4, l1, 2)
	return c
}

// ffPipeline is a single-phase edge-triggered ring with unbalanced
// stages — the degenerate case where conversion provably gains
// nothing, because every launch is pinned to the phase edge.
func ffPipeline() *core.Circuit {
	c := core.NewCircuit(1)
	a := c.AddFF("A", 0, 0.5, 1)
	b := c.AddFF("B", 0, 0.5, 1)
	c.AddPath(a, b, 10)
	c.AddPath(b, a, 4)
	return c
}

func TestConvertToLatchesStructure(t *testing.T) {
	c := mixedLoop()
	c.SetPhaseName(0, "phi1")
	c.SetPhaseName(1, "phi2")
	c.Meta = map[string]string{"source": "test"}

	conv, err := core.ConvertToLatches(c)
	if err != nil {
		t.Fatal(err)
	}
	out := conv.Circuit
	if out.K() != 4 {
		t.Fatalf("converted K = %d, want 4", out.K())
	}
	if conv.FFs != 2 {
		t.Fatalf("FFs = %d, want 2", conv.FFs)
	}
	if got, want := out.L(), c.L()+conv.FFs; got != want {
		t.Fatalf("converted L = %d, want %d (one extra latch per flip-flop)", got, want)
	}
	for _, want := range []string{"phi1a", "phi1b", "phi2a", "phi2b"} {
		found := false
		for p := 0; p < out.K(); p++ {
			if out.PhaseName(p) == want {
				found = true
			}
		}
		if !found {
			t.Errorf("phase name %q missing from converted clock", want)
		}
	}
	for i := 0; i < out.L(); i++ {
		if out.Sync(i).Kind != core.Latch {
			t.Errorf("synchronizer %d (%s) is not a latch", i, out.SyncName(i))
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("converted circuit invalid: %v", err)
	}
	// The flip-flop F2 (phase 1, setup 0.5, cq 1) splits into a master
	// on phase 2 ("phi2a") and a slave on phase 3 ("phi2b").
	f2 := 1 // index in the original
	m, s := conv.In[f2], conv.Out[f2]
	if m == s {
		t.Fatalf("flip-flop maps In == Out (%d)", m)
	}
	ms, ss := out.Sync(m), out.Sync(s)
	if ms.Phase != 2 || ss.Phase != 3 {
		t.Errorf("master/slave phases = %d/%d, want 2/3", ms.Phase, ss.Phase)
	}
	if ms.Setup != 0.5 || ms.DQ != 0.5 {
		t.Errorf("master setup/dq = %g/%g, want 0.5/0.5", ms.Setup, ms.DQ)
	}
	if ss.Setup != 0 || ss.DQ != 1 {
		t.Errorf("slave setup/dq = %g/%g, want 0/1", ss.Setup, ss.DQ)
	}
	if !strings.HasSuffix(out.SyncName(m), ".m") || !strings.HasSuffix(out.SyncName(s), ".s") {
		t.Errorf("master/slave names = %q/%q", out.SyncName(m), out.SyncName(s))
	}
	// The latch L1 keeps a single identity on the "b" half of phase 0.
	if conv.In[0] != conv.Out[0] || out.Sync(conv.In[0]).Phase != 1 {
		t.Errorf("latch mapping In/Out = %d/%d phase %d, want identical on phase 1",
			conv.In[0], conv.Out[0], out.Sync(conv.In[0]).Phase)
	}
	// Every original path survives (plus one ms path per flip-flop),
	// remapped Out[From] -> In[To] with delays intact.
	if got, want := len(out.Paths()), len(c.Paths())+conv.FFs; got != want {
		t.Fatalf("converted paths = %d, want %d", got, want)
	}
	var found bool
	for _, p := range out.Paths() {
		if p.From == conv.Out[0] && p.To == conv.In[f2] && p.Delay == 12 {
			found = true
		}
	}
	if !found {
		t.Error("path L1 -> F2 (delay 12) not remapped onto slave/master indices")
	}
	if out.Meta["source"] != "test" {
		t.Error("Meta not copied")
	}
}

func TestConvertToLatchesRejectsInvalid(t *testing.T) {
	c := core.NewCircuit(1) // no synchronizers: invalid
	if _, err := core.ConvertToLatches(c); err == nil {
		t.Error("invalid circuit accepted")
	}
}

// TestConvertNeverWorseThanEdgeTriggered pins the conversion theorem on
// both shapes: the converted optimum is never above the edge-triggered
// baseline, it matches exactly where no borrowing exists (single-phase
// all-FF ring), and it is strictly better on the mixed two-phase loop.
func TestConvertNeverWorseThanEdgeTriggered(t *testing.T) {
	for _, tt := range []struct {
		name   string
		c      *core.Circuit
		strict bool
	}{
		{"mixed two-phase loop", mixedLoop(), true},
		{"single-phase FF ring", ffPipeline(), false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			base, err := ettf.MinTcCtx(context.Background(), tt.c.MustFreeze().Overlay(), core.Options{})
			if err != nil {
				t.Fatalf("edge-triggered baseline: %v", err)
			}
			conv, err := core.ConvertToLatches(tt.c)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := core.MinTc(conv.Circuit, core.Options{})
			if err != nil {
				t.Fatalf("converted solve: %v", err)
			}
			etTc, lTc := base.Schedule.Tc, opt.Schedule.Tc
			if lTc > etTc+1e-9 {
				t.Fatalf("converted Tc %g exceeds edge-triggered baseline %g", lTc, etTc)
			}
			if tt.strict && lTc >= etTc-1e-9 {
				t.Errorf("converted Tc %g shows no borrowing gain over baseline %g", lTc, etTc)
			}
			if !tt.strict && math.Abs(lTc-etTc) > 1e-6 {
				t.Errorf("single-phase conversion moved Tc: %g vs baseline %g", lTc, etTc)
			}
		})
	}
}
