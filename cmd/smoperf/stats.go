package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything: a tail read from fewer is one or two
// outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample by nearest rank. Failed operations enter a
// sample as +Inf, so a percentile that reaches them reads +Inf.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailNote describes a percentile read from n samples, flagging one the
// sample cannot support.
func tailNote(p float64, n int) string {
	b := beyond(n, p)
	if b < minBeyond {
		return fmt.Sprintf("p%g of %d samples (%d beyond, fewer than %d)", p, n, b, minBeyond)
	}
	return fmt.Sprintf("p%g of %d samples (%d beyond)", p, n, b)
}

// median returns the median of an unsorted sample without reordering it.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of positive values (0 for none);
// an infinite value makes the mean infinite.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// typicalP is the percentile op_p25_ms reads within each kind of
// operation. Other tenants of a shared host slow LP-heavy code up to
// twofold in bursts of seconds to minutes; a kind's fastest quartile
// still contains uncontended operations, so its 25th percentile follows
// the program and hardly the neighbours. Across ten seeded runs on a
// 2-vCPU VM it spread 0.10 where the median spread 0.28.
const typicalP = 25

// groupPercentile is the geometric mean over groups (kinds of
// operation) of each group's p-th percentile, so every kind weighs the
// same however fast or frequent it is.
func groupPercentile(groups [][]float64, p float64) float64 {
	ps := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			ps = append(ps, percentile(sortedCopy(g), p))
		}
	}
	return geomean(ps)
}

// tailRatio puts groups of different scale (circuits of different size,
// sweep families) on one footing: every sample is divided by its own
// group's median, the ratios are pooled, and the p-th percentile of the
// pool is returned with the pooled sample count. Multiplied by the
// geomean of the group medians it gives a tail in the groups' unit.
func tailRatio(groups [][]float64, p float64) (ratio float64, n int) {
	var pool []float64
	for _, g := range groups {
		m := median(g)
		if m <= 0 || math.IsInf(m, 0) {
			continue
		}
		for _, x := range g {
			pool = append(pool, x/m)
		}
	}
	sort.Float64s(pool)
	return percentile(pool, p), len(pool)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default "exclusive" method), so spreads read the same in either tool.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
