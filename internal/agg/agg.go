// Package agg provides the repo's mergeable streaming aggregates:
// Welford moments, fixed-range histograms, and t-digest-style quantile
// sketches whose partial results, built over disjoint chunks of a
// sample in any order, merge into the same totals as one accumulator
// over the whole sample (exactly for moments/histogram counts, within
// the documented rank-error bound for sketch quantiles). This property
// is what lets both the fleet scheduler (worker-local folds merged at
// campaign end) and the ingest service (lock-striped windowed cells
// merged at query time) aggregate without ever holding raw samples.
//
// The division of labor: Moments carry mean/variance, Hist renders
// fixed-resolution CDFs and tables over the paper's 0–500 ms range,
// and Sketch answers quantiles — unclamped and tail-accurate — for the
// heavy-tailed cells (cellular promotion, PSM sweeps) whose upper
// percentiles the histogram saturates at its range cap.
//
// Promoted out of internal/fleet so fleet and ingest share one
// implementation; fleet keeps type aliases for compatibility.
package agg

import (
	"math"
	"time"
)

// Moments is a mergeable streaming accumulator for count, mean,
// variance (via Welford's M2), min, and max. Two Moments built over
// disjoint halves of a sample and merged with Merge agree with one
// Moments built over the whole sample (up to float rounding).
type Moments struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	MinV float64 `json:"min"`
	MaxV float64 `json:"max"`
}

// Add folds one observation in.
func (m *Moments) Add(v float64) {
	m.N++
	if m.N == 1 {
		m.Mean, m.M2, m.MinV, m.MaxV = v, 0, v, v
		return
	}
	d := v - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (v - m.Mean)
	if v < m.MinV {
		m.MinV = v
	}
	if v > m.MaxV {
		m.MaxV = v
	}
}

// AddMulti folds a run of observations in one call — the ingest fold
// path's batch entry point. It runs the exact Welford recurrence of
// repeated Add (same operations, same rounding), so a batched fold is
// byte-identical to a serial per-observation fold; the win is the
// hoisted call overhead, not a different formula. (A two-pass
// chunk-and-merge would be fewer divisions but rounds differently,
// breaking the sharding-equivalence contract.)
func (m *Moments) AddMulti(vs []float64) {
	// The accumulators live in locals across the loop: through the
	// receiver pointer every iteration would store and reload each
	// field, and those memory round-trips — not the arithmetic — are
	// what showed up in the fold-path profile. The update order and
	// rounding are exactly Add's, so the result stays bit-identical.
	n, mean, m2, minv, maxv := m.N, m.Mean, m.M2, m.MinV, m.MaxV
	for _, v := range vs {
		n++
		if n == 1 {
			mean, m2, minv, maxv = v, 0, v, v
			continue
		}
		d := v - mean
		mean += d / float64(n)
		m2 += d * (v - mean)
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
	}
	m.N, m.Mean, m.M2, m.MinV, m.MaxV = n, mean, m2, minv, maxv
}

// AddN folds n copies of v in — the shape a sketch centroid takes when
// folded into moment accumulators. The centroid's internal spread is
// not recoverable, so for sketch-only input the variance is a lower
// bound.
func (m *Moments) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	m.Merge(Moments{N: n, Mean: v, MinV: v, MaxV: v})
}

// Merge folds another accumulator in (Chan et al.'s parallel variance
// update).
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	delta := o.Mean - m.Mean
	tot := n1 + n2
	m.M2 += o.M2 + delta*delta*n1*n2/tot
	m.Mean += delta * n2 / tot
	if o.MinV < m.MinV {
		m.MinV = o.MinV
	}
	if o.MaxV > m.MaxV {
		m.MaxV = o.MaxV
	}
	m.N += o.N
}

// Variance returns the unbiased sample variance.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N-1)
}

// Stddev returns the sample standard deviation.
func (m Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// MeanDuration interprets the accumulator as nanosecond observations.
func (m Moments) MeanDuration() time.Duration { return time.Duration(m.Mean) }
