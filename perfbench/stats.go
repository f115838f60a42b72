package main

import (
	"math"
	"sort"
)

// The statistics the benchmark reports and the compare mode judges by.
// They are written here, with no outside tool, so that the numbers a
// result file holds and the verdicts drawn from them can be checked by
// hand (stats_test.go holds worked cases).

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of xs exactly as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) computes them, so the spread the
// benchmark reports is the one its acceptance rule recomputes. A single
// value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q = append(q, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/n)
	}
	return q[0], q[1], q[2]
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists, in tenths of a percent, the percentiles a tail may
// be reported at.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// rankOf is the 1-based nearest rank of the pm-per-mille percentile in n
// sorted samples: the smallest rank r with r/n >= pm/1000.
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPerMille picks the percentile a latency tail is reported at: the
// highest on tailLadder that leaves at least ten samples beyond it, and
// the median alone below forty samples (a higher percentile of so few
// samples is no tail).
func tailPerMille(n int) int {
	best := 500
	if n < 40 {
		return best
	}
	for _, pm := range tailLadder {
		if n-rankOf(pm, n) >= 10 {
			best = pm
		}
	}
	return best
}

// percentile returns the nearest-rank pm-per-mille percentile of xs.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankOf(pm, len(s))-1]
}

// better reports whether a beats b in the metric's direction.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// winFraction is the share of pairs (parent[i], change[i]) the change
// wins; ties count for neither side but stay in the denominator.
func winFraction(parent, change []float64, dir string) float64 {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i], dir) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// Verdicts of the compare mode.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judgement is one workload x metric row of a comparison.
type judgement struct {
	ParentQ, ChangeQ [3]float64 // quartiles: Q1, median, Q3
	Win              float64    // share of pairs the change wins
	Worse            float64    // change median worse than the parent's, as a share of it (negative: better)
	Spread           float64    // larger relative interquartile spread of the two sides
	Verdict          string
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// judge compares paired runs of one metric. A gain counts only over at
// least minPairs pairs, when the change wins at least nine tenths of them
// and the medians differ, in the better direction, by more than the
// parent's interquartile distance. A change worse by more than bound
// regresses. When either side's spread exceeds the bound the comparison
// cannot tell "no worse" from noise and is unresolved, unless every
// change run is better (or, for a regression, worse) than every parent
// run.
func judge(parent, change []float64, dir string, bound float64) judgement {
	var j judgement
	j.ParentQ[0], j.ParentQ[1], j.ParentQ[2] = quartiles(parent)
	j.ChangeQ[0], j.ChangeQ[1], j.ChangeQ[2] = quartiles(change)
	j.Win = winFraction(parent, change, dir)
	pm, cm := j.ParentQ[1], j.ChangeQ[1]
	j.Worse = (cm - pm) / math.Abs(pm)
	if dir == "higher" {
		j.Worse = -j.Worse
	}
	j.Spread = math.Max(relSpread(parent), relSpread(change))

	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p, dir) {
				allBetter = false
			}
			if !better(p, c, dir) {
				allWorse = false
			}
		}
	}
	gap := math.Abs(cm - pm)
	switch {
	case len(parent) >= minPairs && j.Win >= 0.9 && better(cm, pm, dir) && gap > j.ParentQ[2]-j.ParentQ[0]:
		j.Verdict = verdictImproved
	case j.Worse > bound && (j.Spread <= bound || allWorse):
		j.Verdict = verdictRegressed
	case j.Spread > bound && !allBetter:
		j.Verdict = verdictUnresolved
	default:
		j.Verdict = verdictNoWorse
	}
	return j
}
