package main

import (
	"cmp"
	"math"
	"slices"
)

// quantile returns the q-quantile of samples, computed exactly from the
// raw values by linear interpolation between the two closest ranks (the
// R-7 / NumPy default definition). It sorts samples in place and returns
// NaN for an empty slice.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	h := q * float64(len(samples)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	return samples[lo] + (h-float64(lo))*(samples[lo+1]-samples[lo])
}

// minP99Samples is the sample count below which a p99 is not reported:
// at 1000 samples, ten lie beyond it.
const minP99Samples = 1000

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.start > end {
			end = iv.start
		}
		if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}
