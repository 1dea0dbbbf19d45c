package main

import (
	"math"
	"sort"
)

// sample is one reported metric: a value (a median unless the metric is a
// count or a maximum), its unit, and how many observations stand behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; NaN when v is empty so a missing measurement can never pass
// for a zero.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between closest ranks.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(v []float64) float64 {
	m := math.NaN()
	for _, x := range v {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// default "exclusive" method) — the acceptance driver computes its spreads
// with that function, so -compare must agree with it digit for digit. With
// fewer than two values all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		nan := math.NaN()
		return nan, nan, nan
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
