package decomp

import (
	"sync"

	"mintc/internal/mcr"
)

// State memoizes per-component answers across decomposed solves of
// ONE frozen snapshot under ONE option set. Two kinds of entries:
//
//   - answers, keyed by component delay digest
//     (core.DelayOverlay.ComponentDigest): the subsystem optimum and
//     its witness cycle. A digest covers exactly the delays the
//     component's subsystem reads, so overlays that edit other
//     components hit the same entries — that is the incremental
//     re-solve: only dirty components miss.
//   - base probe potentials, keyed by component (plus one full-graph
//     set for the coupling pass): the node potentials of a probe solve
//     over the snapshot's own delays. Every edited re-solve seeds them
//     (mcr.Solver.SeedPotentials) so the warm probe relaxes only the
//     residual the edit perturbed.
//
// Because each stored value is a pure function of (snapshot, options,
// digest) — re-solves always warm from the base potentials (computed
// on demand), never from whatever potentials an arbitrary earlier
// overlay left behind — concurrent solves racing on the same key
// compute identical values, so the cache never makes results depend
// on solve order. The session layer relies on this for its
// concurrent-equals-serial guarantee.
//
// A State must not be shared across snapshots or option sets: digests
// do not cover either. The session layer keys its States the same way
// it keys its result cache.
type State struct {
	mu      sync.Mutex
	comps   map[uint64]compAnswer
	compPot map[int][]float64

	// The persistent coupling-pass solver: the full constraint graph is
	// by far the most expensive thing a decomposed solve builds (CSR
	// assembly is O(paths)), and its structure depends only on the
	// snapshot, so one compiled instance serves every solve. coupMu
	// serializes the coupling pass (component solves still fan out);
	// couplerEdits tracks which paths the coupler's constants currently
	// deviate on so the next solve can reconcile them against its
	// overlay, and couplerPot holds the base-overlay fixpoint every
	// coupling pass warm-starts from.
	coupMu       sync.Mutex
	coupler      *mcr.Solver
	couplerEdits []int32
	couplerPot   []float64
}

// NewState returns an empty per-(snapshot, options) component cache.
func NewState() *State {
	return &State{
		comps:   make(map[uint64]compAnswer),
		compPot: make(map[int][]float64),
	}
}

func (st *State) lookup(dig uint64) (compAnswer, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ans, ok := st.comps[dig]
	return ans, ok
}

func (st *State) store(dig uint64, ans compAnswer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.comps[dig]; !ok {
		st.comps[dig] = ans
	}
}

func (st *State) potentials(ci int) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compPot[ci]
}

func (st *State) storePotentials(ci int, pot []float64) {
	if pot == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.compPot[ci]; !ok {
		st.compPot[ci] = pot
	}
}
