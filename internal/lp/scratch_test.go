package lp

import (
	"context"
	"math/rand"
	"testing"
)

// smoLikeProblem builds a small SMO-shaped program: minimize tc
// subject to GE propagation-style and LE setup-style rows.
func smoLikeProblem(nv int, rng *rand.Rand) *Problem {
	p := &Problem{}
	tc := p.AddVar("tc", 1)
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = p.AddVar("d", 0)
	}
	for i, v := range vars {
		// d_i + tc >= rhs (propagation-like)
		p.AddConstraint("ge", []Term{{v, 1}, {tc, 1}}, GE, 10+20*rng.Float64())
		// d_i - tc <= rhs (setup-like)
		p.AddConstraint("le", []Term{{v, 1}, {tc, -1}}, LE, 5+10*rng.Float64())
		if i > 0 {
			p.AddConstraint("chain", []Term{{v, 1}, {vars[i-1], -1}}, LE, 3+rng.Float64())
		}
	}
	return p
}

func sameSolution(t *testing.T, tag string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", tag, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return
	}
	if got.Obj != want.Obj {
		t.Errorf("%s: obj %v != %v", tag, got.Obj, want.Obj)
	}
	for j := range want.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("%s: X[%d] = %v, want %v", tag, j, got.X[j], want.X[j])
		}
	}
	for i := range want.Dual {
		if got.Dual[i] != want.Dual[i] {
			t.Fatalf("%s: Dual[%d] = %v, want %v", tag, i, got.Dual[i], want.Dual[i])
		}
	}
	for i := range want.Slack {
		if got.Slack[i] != want.Slack[i] {
			t.Fatalf("%s: Slack[%d] = %v, want %v", tag, i, got.Slack[i], want.Slack[i])
		}
	}
}

// TestScratchReuseBitIdentical solves the same programs repeatedly and
// demands bit-identical solutions whether the arena is fresh (first
// lap) or recycled, including across interleaved shapes that force the
// arena to rebind to different sizes.
func TestScratchReuseBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	probs := []*Problem{
		smoLikeProblem(4, rng),
		smoLikeProblem(17, rng),
		smoLikeProblem(2, rng),
	}
	var first []*Solution
	reuses := 0
	for lap := 0; lap < 4; lap++ {
		for pi, p := range probs {
			sol, err := SolveCtx(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if lap == 0 {
				first = append(first, sol)
				continue
			}
			sameSolution(t, "reuse", sol, first[pi])
			for i := range first[pi].RHSRange {
				if sol.RHSRange[i] != first[pi].RHSRange[i] {
					t.Fatalf("RHSRange[%d] = %v, want %v", i, sol.RHSRange[i], first[pi].RHSRange[i])
				}
			}
			if sol.Stats.ScratchReused {
				reuses++
			} else if poolEnabled && !raceEnabled {
				// Under -race, sync.Pool drops a fraction of Puts at
				// random (see race_on_test.go), so only the aggregate
				// check below applies there.
				t.Error("repeat solve did not reuse a scratch arena")
			}
		}
	}
	if poolEnabled && reuses == 0 {
		t.Error("no repeat solve ever reused a scratch arena")
	}
}
