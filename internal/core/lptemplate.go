package core

import (
	"fmt"
	"math"
	"sync"

	"mintc/internal/lp"
)

// lpTemplate is the design LP P2 of one snapshot under one options
// shape, built once from the base overlay and shared by every overlay
// solve of that shape. Delays enter P2 only through right-hand sides
// (propagationRHS, ffSetupRHS, holdRHS), so an overlay's LP is the
// template with the edited paths' RHS values patched in: a solve takes
// a Fork that shares the rows' names and terms and owns only its row
// array, instead of rebuilding every row, name and term.
//
// Everything in a template is read-only once built: prob is only ever
// forked, and rows/vm are handed to results as they are (rows capped
// at its length, so an append on one result never writes into the
// template).
type lpTemplate struct {
	once sync.Once
	key  lpShape

	prob *lp.Problem
	vm   *VarMap
	rows []RowInfo
	// delayRow[p] is path p's L2R (latch destination) or FF-setup
	// (flip-flop destination) row; every path owns exactly one.
	delayRow []int32
	// holdRow[p] is path p's conservative hold row, -1 when it has
	// none; nil when the shape has no hold rows at all.
	holdRow []int32
	// fixedRow is the fixed-Tc row, -1 when the shape has none.
	fixedRow int
}

// lpShape is the part of Options that decides the LP's rows, terms and
// costs. The fixed cycle time enters only as a presence bit — its value
// is an RHS patch — so client-chosen Tc targets cannot grow a
// snapshot's template cache. Update and MaxUpdateIter never reach the
// LP.
type lpShape struct {
	minPhaseWidth, minSeparation, skew uint64 // Float64bits
	phaseSkew                          []float64
	designForHold                      bool
	objective                          ObjectiveKind
	fixedTc                            bool
}

func lpShapeOf(opts Options) lpShape {
	return lpShape{
		minPhaseWidth: math.Float64bits(opts.MinPhaseWidth),
		minSeparation: math.Float64bits(opts.MinSeparation),
		skew:          math.Float64bits(opts.Skew),
		phaseSkew:     opts.PhaseSkew,
		designForHold: opts.DesignForHold,
		objective:     opts.Objective.Kind,
		fixedTc:       opts.Objective.effectiveFixedTc(opts.FixedTc) > 0,
	}
}

func (a lpShape) equal(b lpShape) bool {
	if a.minPhaseWidth != b.minPhaseWidth || a.minSeparation != b.minSeparation || a.skew != b.skew ||
		a.designForHold != b.designForHold || a.objective != b.objective || a.fixedTc != b.fixedTc ||
		len(a.phaseSkew) != len(b.phaseSkew) {
		return false
	}
	for i, v := range a.phaseSkew {
		if math.Float64bits(v) != math.Float64bits(b.phaseSkew[i]) {
			return false
		}
	}
	return true
}

// lpTemplate returns the snapshot's LP template for the options'
// shape, building it on first use. Concurrent first uses of one shape
// build it once; distinct shapes build in parallel.
func (cc *Compiled) lpTemplate(opts Options) *lpTemplate {
	key := lpShapeOf(opts)
	cc.mu.Lock()
	var t *lpTemplate
	for _, e := range cc.lps {
		if e.key.equal(key) {
			t = e
			break
		}
	}
	if t == nil {
		key.phaseSkew = append([]float64(nil), key.phaseSkew...)
		t = &lpTemplate{key: key}
		cc.lps = append(cc.lps, t)
	}
	cc.mu.Unlock()
	t.once.Do(func() { t.build(cc.Overlay(), opts) })
	return t
}

// build generates the base overlay's LP and indexes the rows that
// carry each path's delays.
func (t *lpTemplate) build(base DelayOverlay, opts Options) {
	c := base.base.c
	prob, vm, rows := buildLP(base, opts)
	t.prob, t.vm, t.rows = prob, vm, rows[:len(rows):len(rows)]
	t.fixedRow = -1
	t.delayRow = make([]int32, len(c.paths))
	if opts.DesignForHold {
		t.holdRow = make([]int32, len(c.paths))
		for i := range t.holdRow {
			t.holdRow[i] = -1
		}
	}
	for i, info := range rows {
		switch info.Kind {
		case RowPropagation, RowFFSetup:
			t.delayRow[info.Path] = int32(i)
		case RowHold:
			t.holdRow[info.Path] = int32(i)
		case RowFixedTc:
			t.fixedRow = i
		}
	}
}

// instance returns the overlay's LP under opts: a fork of the template
// with every edited path's delay and hold rows and the fixed-Tc row
// re-evaluated by the same RHS formulas buildLP uses, so the program
// is bit-identical to building it from scratch.
func (t *lpTemplate) instance(ov DelayOverlay, opts Options) *lp.Problem {
	p := t.prob.Fork()
	for pidx := range ov.edits {
		pi := int(pidx)
		row := int(t.delayRow[pi])
		if t.rows[row].Kind == RowPropagation {
			p.SetRHS(row, propagationRHS(ov, opts, pi))
		} else {
			p.SetRHS(row, ffSetupRHS(ov, opts, pi))
		}
		if t.holdRow != nil && t.holdRow[pi] >= 0 {
			p.SetRHS(int(t.holdRow[pi]), holdRHS(ov, opts, pi))
		}
	}
	if t.fixedRow >= 0 {
		p.SetRHS(t.fixedRow, opts.Objective.effectiveFixedTc(opts.FixedTc))
	}
	return p
}

// pathRows returns the LP rows that carry path pidx's delays: its
// delay row with dRHS/dΔ (+1 for a latch-destination L2R row, −1 for a
// flip-flop setup row, whose RHS is negated) and its hold row (−1 when
// the LP has none). The hold row's RHS falls 1:1 with the path's
// MinDelay.
func (r *Result) pathRows(pidx int) (row int, sign float64, hold int, err error) {
	row, hold = -1, -1
	for i, info := range r.Rows {
		if info.Path != pidx {
			continue
		}
		switch info.Kind {
		case RowPropagation, RowFFSetup:
			row = i
		case RowHold:
			hold = i
		}
	}
	if row < 0 {
		return 0, 0, -1, fmt.Errorf("core: no LP row carries path %d's delay", pidx)
	}
	sign = 1
	if r.Rows[row].Kind == RowFFSetup {
		sign = -1
	}
	return row, sign, hold, nil
}
