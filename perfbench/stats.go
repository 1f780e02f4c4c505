package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 85, 80, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[hi]*f
}

// median returns the median of values without modifying them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond counts the samples of sorted strictly greater than its p-th
// percentile.
func beyond(sorted []float64, p float64) int {
	v := quantile(sorted, p/100)
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return len(sorted) - i
}

// tailPct returns the highest ladder percentile that has at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func tailPct(sorted []float64) float64 {
	for _, p := range tailLadder {
		if beyond(sorted, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// timing is one latency distribution as reported: the median and the tail
// at the highest percentile the sample count supports.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
	Beyond  int     `json:"beyond"` // samples beyond the tail
}

// summarize applies the reporting rule: median plus the highest percentile
// with at least minBeyond samples beyond it. With too few samples for any
// ladder percentile the maximum is reported as the tail and TailPct is 100.
func summarize(values []float64) timing {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = quantile(s, 0.5)
	t.TailPct = tailPct(s)
	if t.TailPct == 0 {
		t.TailPct, t.Tail = 100, s[len(s)-1]
		return t
	}
	t.Tail = quantile(s, t.TailPct/100)
	t.Beyond = beyond(s, t.TailPct)
	return t
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
