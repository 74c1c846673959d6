package main

import (
	"math"
	"sort"
)

// Percentiles are computed here, from the exact recorded samples, with
// the standard library only: the ruler must not move when the
// program's own sketches and histograms change.

// dist is a sorted copy of a sample set.
type dist []float64

func newDist(samples []float64) dist {
	d := append(dist(nil), samples...)
	sort.Float64s(d)
	return d
}

// q returns the nearest-rank q-quantile (0 < q ≤ 1); NaN when empty.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

// beyond counts the samples strictly above the q-quantile's rank.
func (d dist) beyond(q float64) int {
	return len(d) - int(math.Ceil(q*float64(len(d))))
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// segmentQ splits samples, in time order, into equal consecutive
// segments of at least minSeg samples and returns the median of the
// segments' q-quantiles and the segment count.
func segmentQ(samples []float64, q float64, minSeg int) (float64, int) {
	k := max(1, len(samples)/minSeg)
	per := make([]float64, k)
	for i := range per {
		per[i] = newDist(samples[i*len(samples)/k : (i+1)*len(samples)/k]).q(q)
	}
	return median(per), k
}
