package main

import (
	"math"
	"sort"
)

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks (q in [0,1]).
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cv is the coefficient of variation, standard deviation over mean.
func cv(v []float64) float64 {
	m := mean(v)
	s := 0.0
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s/float64(len(v))) / m
}

// tailLadder lists the percentiles op_tail_ms may use, highest first.
var tailLadder = []int{90, 80, 70, 60}

// minBeyond is how many samples must lie beyond the tail percentile for
// it to be an estimate and not a record of the worst few stalls.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that leaves
// at least minBeyond of n samples beyond it; with too few samples for any,
// it falls back to the lowest rung. It is called with the sample count a
// workload is sure to reach in its window (not the count of one run), so
// that a run a little shorter than another does not change the percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(100-p) >= minBeyond*100 {
			return float64(p) / 100
		}
	}
	return float64(tailLadder[len(tailLadder)-1]) / 100
}

// normalise converts a raw duration to the nominal machine: the duration
// it would have had where the yardstick takes RefNominalMs, given that the
// yardstick took refNs next to it. The unit of raw is kept.
func normalise(raw, refNs float64) float64 {
	return raw * (RefNominalMs * 1e6) / refNs
}

// adjacentRef is the yardstick time an op is normalised by: the mean of
// the bracket before it and the bracket after it.
func adjacentRef(before, after float64) float64 { return (before + after) / 2 }
