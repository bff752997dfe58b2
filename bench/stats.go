package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples, and an error when fewer than minTail samples lie beyond it.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := max(1, int(math.Ceil(p*float64(n)))) // 1-based
	if p > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", p*100, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// measure is one reported number: the median of its per-slice (or
// per-set-up) values with the quartiles beside it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"` // values the median was taken over
}

// exact is a measure of a single value (a count, a ratio of totals).
func exact(v float64) measure { return measure{Value: v, Q1: v, Q3: v, N: 1} }

// summarize is the median and quartiles of vs (linear interpolation
// between order statistics, so two values already give their mean).
func summarize(vs []float64) measure {
	if len(vs) == 0 {
		return measure{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return measure{Value: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(s)}
}

// iqrShare is the inter-quartile range as a share of the median.
func (m measure) iqrShare() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

func median(vs []float64) float64 { return summarize(vs).Value }
