package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Centroid is one weighted point of a Sketch: Weight observations whose
// mean is Mean. Centroids are kept sorted by mean.
type Centroid struct {
	Mean   float64 `json:"m"`
	Weight int64   `json:"w"`
}

// Sketch is a mergeable t-digest-style streaming quantile sketch: it
// summarizes an unbounded stream of observations in O(Compression)
// centroids, keeps min and max exactly, and answers arbitrary quantiles
// with a rank-error bound proportional to q·(1−q) — tightest exactly at
// the tails, where the fixed-range Hist saturates (every observation ≥
// its upper edge collapses into Over, pinning p99 at the range cap for
// heavy-tailed cells). Sketches built over disjoint chunks of a sample
// and merged in any order describe the same distribution within
// QuantileErrorBound of the whole-stream sketch.
//
// The compression pass is deterministic: given the same insertion
// order, Add and Merge always produce the same centroids. Different
// fold orders (different worker schedules) produce different centroids
// but the same quantiles within the documented bound — which is why
// cross-run comparisons (ingested vs offline aggregates) check
// quantile agreement within the bound rather than centroid equality.
//
// Like Hist and Moments, a Sketch is not safe for concurrent use;
// callers serialize access (worker-local folds, stripe locks).
type Sketch struct {
	// Compression bounds the centroid count and sets the error bound;
	// see NewSketch.
	Compression float64
	// Count is the total number of observations folded in.
	Count int64
	// MinV / MaxV are the exact extremes of the stream.
	MinV float64
	MaxV float64
	// Centroids is the compressed summary, sorted by mean. Buffered
	// observations not yet compressed are excluded; call Flush before
	// reading Centroids directly.
	Centroids []Centroid

	buf []float64 // uncompressed recent observations
}

// Sketch sizing. The default compression keeps ≤ ~Compression+2
// centroids per sketch (≤ ~3.3 KiB; ~125 on fleet traffic) and a
// p99/p01 rank error two orders of magnitude below the histogram's
// saturated tail. Next to them sits the fold buffer, at most bufLimit
// observations (1.6 KiB at the default), sized for memory per
// resident cell rather than for the fewest compression passes; see
// bufLimit.
const (
	DefaultSketchCompression = 200
	MinSketchCompression     = 20
	MaxSketchCompression     = 1000
)

// NewSketch builds a sketch. compression <= 0 selects the default; the
// value is clamped to [MinSketchCompression, MaxSketchCompression].
func NewSketch(compression float64) *Sketch {
	return &Sketch{Compression: clampCompression(compression)}
}

func clampCompression(c float64) float64 {
	switch {
	case c <= 0 || math.IsNaN(c):
		return DefaultSketchCompression
	case c < MinSketchCompression:
		return MinSketchCompression
	case c > MaxSketchCompression:
		return MaxSketchCompression
	default:
		return c
	}
}

// normalize floors an unset or out-of-range compression (a zero-value
// Sketch, or one decoded from JSON that never went through Valid, e.g.
// a fleet report round-trip) before it is used. Without this, 0 would
// merge every centroid into one (kScale is flat at compression 0) and
// make QuantileErrorBound infinite; a huge value would stop the buffer
// from ever flushing.
func (s *Sketch) normalize() {
	if s.Compression < MinSketchCompression || s.Compression > MaxSketchCompression || math.IsNaN(s.Compression) {
		s.Compression = clampCompression(s.Compression)
	}
}

// bufLimit is the buffered-observation count that triggers a
// compression pass; compression cost amortizes over it. A flushed
// buffer keeps its capacity, so the limit is paid in memory on every
// resident sketch, two per ingest cell, and traded against compression
// passes per observation. At 4·Compression a fleet-shaped cell that
// had seen ~300 summaries held 22.0 KB of live heap, 13.2 KB of it
// buffer capacity; at Compression its buffers hold 3.5 KB and the
// cell 12.7 KB (TestFleetCellFootprintSteady). The fourfold passes cost ~15% on a
// bare Add stream (BenchmarkSketchFold); on fleet traffic they are
// repaid because a merge no longer flushes the receiver (see Merge),
// and a fleet-shaped fold got faster (BenchmarkStoreFoldFleet).
func (s *Sketch) bufLimit() int {
	n := int(s.Compression)
	if n < 64 {
		n = 64
	}
	return n
}

// Add folds one observation in.
func (s *Sketch) Add(v float64) {
	s.normalize()
	if s.Count == 0 || v < s.MinV {
		s.MinV = v
	}
	if s.Count == 0 || v > s.MaxV {
		s.MaxV = v
	}
	s.Count++
	limit := s.bufLimit()
	if len(s.buf) == cap(s.buf) {
		s.growBuf(len(s.buf)+1, limit)
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= limit {
		s.Flush()
	}
}

// growBuf reallocates the buffer to hold at least need observations,
// doubling like append but not past limit, which a buffer only
// reaches to flush: append's own rounding would leave every resident
// sketch with 256 or more floats of capacity for a 200-float buffer.
func (s *Sketch) growBuf(need, limit int) {
	grown := make([]float64, len(s.buf), max(min(2*cap(s.buf), limit), need))
	copy(grown, s.buf)
	s.buf = grown
}

// AddDuration folds one duration in as float nanoseconds, the unit
// every RTT aggregate in this repo uses.
func (s *Sketch) AddDuration(d time.Duration) { s.Add(float64(d)) }

// AddMulti folds a run of observations in one call — the batch entry
// point the ingest fold path uses to amortize the per-call normalize
// and bounds checks across a whole same-cell run. It flushes at
// exactly the same buffer boundaries sequential Add calls would, so a
// batched fold stays byte-identical to a serial per-observation fold.
func (s *Sketch) AddMulti(vs []float64) {
	if len(vs) == 0 {
		return
	}
	s.normalize()
	limit := s.bufLimit()
	for len(vs) > 0 {
		n := limit - len(s.buf)
		if n > len(vs) {
			n = len(vs)
		}
		chunk := vs[:n]
		// Count/min/max ride in locals across the chunk (same
		// store-reload avoidance as Moments.AddMulti); Flush doesn't
		// touch them, so writing back once per chunk is safe.
		count, minv, maxv := s.Count, s.MinV, s.MaxV
		for _, v := range chunk {
			if count == 0 || v < minv {
				minv = v
			}
			if count == 0 || v > maxv {
				maxv = v
			}
			count++
		}
		s.Count, s.MinV, s.MaxV = count, minv, maxv
		if len(s.buf)+n > cap(s.buf) {
			s.growBuf(len(s.buf)+n, limit)
		}
		s.buf = append(s.buf, chunk...)
		vs = vs[n:]
		if len(s.buf) >= limit {
			s.Flush()
		}
	}
}

// N returns the total observation count.
func (s *Sketch) N() int64 { return s.Count }

// Flush compresses any buffered observations into the centroid list.
// Idempotent; called automatically by Quantile and JSON marshalling
// (Merge leaves the receiver's buffer alone). The sort keys and merge
// workspace come from the pooled flushScratch and the centroid list
// itself is reused across flushes, so a steady-state flush allocates
// nothing — this is the allocation the ingest fold path used to pay
// once per bufLimit observations.
func (s *Sketch) Flush() {
	s.normalize()
	if len(s.buf) == 0 {
		return
	}
	fs := flushScratchPool.Get().(*flushScratch)
	s.flush(fs)
	flushScratchPool.Put(fs)
}

// flush is Flush over a caller-held scratch, for a non-empty buffer.
// It touches only fs.merged and the sort keys, so a caller may hold
// other scratch fields across it. The pass reads s.Centroids, so it
// compresses into fs.merged and copies the result back.
func (s *Sketch) flush(fs *flushScratch) {
	fs.sortObservations(s.buf)
	fs.merged = compressInto(fs.merged[:0], s.Centroids, s.buf, s.Count, s.Compression)
	s.buf = s.buf[:0]
	if n := len(fs.merged); n > cap(s.Centroids) {
		// A power of two, as appending one centroid at a time would
		// give: a tight fit would regrow at the next flush's slightly
		// longer list, and keep ~2× the centroid bytes on every cell.
		s.Centroids = make([]Centroid, 0, 1<<bits.Len(uint(n-1)))
	}
	s.Centroids = append(s.Centroids[:0], fs.merged...)
}

// mergeSortedCentroids linearly merges two mean-sorted centroid lists
// into dst — Merge combines lists that are sorted by construction, so
// no comparison sort is needed.
func mergeSortedCentroids(dst, a, b []Centroid) []Centroid {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Mean <= b[j].Mean) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return dst
}

// The compression pass follows the t-digest k1 scale function,
// k(q) = compression/(2π)·asin(2q−1): a centroid may only span one
// k-unit, and since dk/dq diverges as q→0 or 1, tail centroids shrink
// to single observations while mid-range centroids grow — resolution
// concentrates exactly where Hist loses it. The total k-span of [0,1]
// is compression/2, which bounds the centroid count independently of
// stream length.
//
// qLimitAfter is the spanning rule solved for quantiles: the largest q
// a centroid whose left edge sits at quantile q0 may extend to before
// it spans more than one k-unit, q = (sin(asin(2q0−1) + δ) + 1)/2 with
// δ = 2π/compression. The angle addition expands to
// (2q0−1)·cos δ + √(1−(2q0−1)²)·sin δ, so with sin δ and cos δ hoisted
// by the caller the per-emitted-centroid cost is one sqrt — no trig at
// all on the compression path (the asin/sin pair here used to be the
// flush's largest single cost after the sort).
func qLimitAfter(q0, sinD, cosD float64) float64 {
	x := 2*q0 - 1
	if x >= cosD { // asin(2q0−1)+δ ≥ π/2: the k-budget reaches q=1
		return 1
	}
	return (x*cosD + math.Sqrt(1-x*x)*sinD + 1) / 2
}

// compressInto runs the deterministic single-pass merge over the
// mean-ordered union of a sorted centroid list cs and a sorted
// observation buffer obs (each value a weight-1 centroid; centroids
// win ties), appending the result to dst: adjacent centroids coalesce
// while the combined centroid still spans at most one k-unit of the
// scale function (checked against the precomputed inverse-scale
// quantile limit, which is kScale(qRight)−kLeft ≤ 1 rearranged through
// the monotone inverse). Walking the two inputs in place, rather than
// materializing their merge first, saves a write and a read of every
// centroid on the flush path. dst may be the zero-length head of a
// slice holding neither input.
func compressInto(dst, cs []Centroid, obs []float64, total int64, compression float64) []Centroid {
	if len(cs)+len(obs) == 0 {
		return nil
	}
	i, j := 0, 0
	next := func() (c Centroid) {
		if j >= len(obs) || (i < len(cs) && cs[i].Mean <= obs[j]) {
			c = cs[i]
			i++
		} else {
			c = Centroid{Mean: obs[j], Weight: 1}
			j++
		}
		return c
	}
	cur := next()
	var wSoFar int64
	tf := float64(total)
	sinD, cosD := math.Sincos(2 * math.Pi / compression)
	// The limit is carried in weight space (qLimit·total), so the
	// per-input check is a convert-and-compare with no division.
	wLimit := qLimitAfter(0, sinD, cosD) * tf
	for i < len(cs) || j < len(obs) {
		c := next()
		proposed := cur.Weight + c.Weight
		if float64(wSoFar+proposed) <= wLimit {
			cur.Mean += (c.Mean - cur.Mean) * float64(c.Weight) / float64(proposed)
			cur.Weight = proposed
		} else {
			dst = append(dst, cur)
			wSoFar += cur.Weight
			wLimit = qLimitAfter(float64(wSoFar)/tf, sinD, cosD) * tf
			cur = c
		}
	}
	return append(dst, cur)
}

// Merge folds another sketch in without mutating it; the merged sketch
// summarizes the union of both streams. It adopts the coarser (smaller)
// compression of the two: resolution already lost to a
// lower-compression input cannot be recovered by re-labelling, so
// keeping the finer value would make QuantileErrorBound silently
// understate the true error of the merged data.
//
// Merge never flushes the receiver's buffer. Each weight-1 centroid of
// o (as o would hold after a Flush) is one observation, so it joins the
// receiver's buffer exactly as Add would append it, flushing at the
// same limit; only o's weighted centroids go through a centroid merge
// and compression pass. A device-posted sketch of a few dozen
// observations is all singletons, so folding it costs a buffer append
// rather than two early flushes of the cell's sketches.
func (s *Sketch) Merge(o *Sketch) { s.merge(o, false, 0, 0) }

// MergeShifted folds o in as if delta had been added to every one of
// its values and the result clamped from below at floor — the shape
// puncturing needs: subtracting a correction from a device-posted
// sketch while keeping corrected RTTs non-negative, exactly as the
// per-observation path clamps. Like Merge it neither mutates nor
// clones o; the shifted centroids live in pooled scratch.
func (s *Sketch) MergeShifted(o *Sketch, delta, floor float64) { s.merge(o, true, delta, floor) }

// shiftClamp is MergeShifted's per-value map.
func shiftClamp(v, delta, floor float64) float64 {
	if v += delta; v < floor {
		return floor
	}
	return v
}

// merge is Merge, with o's values passed through shiftClamp when shift
// is set.
func (s *Sketch) merge(o *Sketch, shift bool, delta, floor float64) {
	s.normalize()
	if o == nil || o.Count == 0 {
		return
	}
	if oc := clampCompression(o.Compression); oc < s.Compression {
		s.Compression = oc
	}
	limit := s.bufLimit()
	omin, omax := o.MinV, o.MaxV
	if shift {
		omin, omax = shiftClamp(omin, delta, floor), shiftClamp(omax, delta, floor)
	}
	if s.Count == 0 || omin < s.MinV {
		s.MinV = omin
	}
	if s.Count == 0 || omax > s.MaxV {
		s.MaxV = omax
	}
	fs := flushScratchPool.Get().(*flushScratch)
	if len(s.buf) >= limit { // adopting a coarser compression lowered the limit
		s.flush(fs)
	}
	// Singletons join the buffer one by one, so Count always equals
	// the centroid mass plus the buffer length; weighted centroids
	// (still sorted: a shift with a floor clamp is monotone) take one
	// linear merge with the receiver's centroids. An unshifted o
	// without singletons — any long-lived sketch — is merged as it
	// stands; otherwise its weighted centroids are copied out first.
	// flush leaves fs.weighted and fs.flat, which flushedInto may
	// return, alone.
	oc := o.flushedInto(fs)
	var mass int64 // of oc's weighted centroids, once singletons leave
	split := shift
	for _, c := range oc {
		mass += c.Weight
		split = split || c.Weight == 1
	}
	weighted := oc
	if split {
		weighted = fs.weighted[:0]
		for _, c := range oc {
			if shift {
				c.Mean = shiftClamp(c.Mean, delta, floor)
			}
			if c.Weight != 1 {
				weighted = append(weighted, c)
				continue
			}
			mass--
			s.Count++
			if len(s.buf) == cap(s.buf) {
				// Straight to the limit: growing a fresh rollup row's
				// buffer one singleton at a time would reallocate it
				// at every doubling.
				s.growBuf(limit, limit)
			}
			s.buf = append(s.buf, c.Mean)
			if len(s.buf) >= limit {
				s.flush(fs)
			}
		}
		fs.weighted = weighted
	}
	if len(weighted) > 0 {
		s.Count += mass
		fs.merged = mergeSortedCentroids(fs.merged[:0], s.Centroids, weighted)
		s.Centroids = compressInto(s.Centroids[:0], fs.merged, nil, s.Count-int64(len(s.buf)), s.Compression)
	}
	flushScratchPool.Put(fs)
}

// flushedInto returns the centroids s would hold after a Flush, without
// mutating s: s.Centroids itself when nothing is buffered (read-only),
// else fs.flat holding the exact pass Flush would run, over a sorted
// copy of the buffer. Wire-decoded sketches never buffer, so the merge
// and walk paths copy nothing for them.
func (s *Sketch) flushedInto(fs *flushScratch) []Centroid {
	if len(s.buf) == 0 {
		return s.Centroids
	}
	fs.obs = append(fs.obs[:0], s.buf...)
	fs.sortObservations(fs.obs)
	fs.flat = compressInto(fs.flat[:0], s.Centroids, fs.obs, s.Count, clampCompression(s.Compression))
	return fs.flat
}

// EachCentroid calls fn for every centroid s would hold after a Flush,
// in mean order, without mutating or cloning s: buffered observations
// are compressed in pooled scratch. fn must not modify s.
func (s *Sketch) EachCentroid(fn func(Centroid)) {
	fs := flushScratchPool.Get().(*flushScratch)
	for _, c := range s.flushedInto(fs) {
		fn(c)
	}
	flushScratchPool.Put(fs)
}

// MergeSketches merges src into *dst for a pair of aggregates that
// folded dstN and srcN observations respectively. A sketch may only
// serve quantiles when it covers every observation its aggregate
// folded; when either side folded observations without a sketch (a
// record predating sketches), the merged sketch would silently describe
// a subset of the distribution, so it is dropped instead and callers
// fall back to their histogram path. Shared by the fleet group merge
// and the ingest cell merge so the coverage rule cannot drift.
func MergeSketches(dst **Sketch, dstN int64, src *Sketch, srcN int64) {
	dstCovers := dstN == 0 || (*dst != nil && (*dst).Count == dstN)
	srcCovers := srcN == 0 || (src != nil && src.Count == srcN)
	if !dstCovers || !srcCovers {
		*dst = nil
		return
	}
	if src == nil || src.Count == 0 {
		return
	}
	if *dst == nil {
		*dst = src.Clone()
		return
	}
	(*dst).Merge(src)
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	c.Centroids = append([]Centroid(nil), s.Centroids...)
	c.buf = append([]float64(nil), s.buf...)
	return &c
}

// Quantile estimates the q-th quantile (0..1) by interpolating between
// centroid means, with the exact min and max anchoring the extremes.
// Compresses buffered observations first.
func (s *Sketch) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q >= 1 {
		return s.quantileOf(nil, q)
	}
	s.Flush()
	return s.quantileOf(s.Centroids, q)
}

// Quantiles sets out[i] to Quantile(qs[i]) for every i without
// mutating s: buffered observations are compressed in pooled scratch
// by the exact pass Flush would run, so the values are Quantile's, but
// the sketch's later centroids do not depend on when it was read. This
// is the read live cells serve from.
func (s *Sketch) Quantiles(qs, out []float64) {
	fs := flushScratchPool.Get().(*flushScratch)
	cs := s.flushedInto(fs)
	for i, q := range qs {
		out[i] = s.quantileOf(cs, q)
	}
	flushScratchPool.Put(fs)
}

// quantileOf is Quantile over cs, the centroids s holds once flushed.
func (s *Sketch) quantileOf(cs []Centroid, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.MinV
	}
	if q >= 1 {
		return s.MaxV
	}
	if len(cs) == 1 {
		return cs[0].Mean
	}
	target := q * float64(s.Count)
	// Each centroid's mass is treated as centered at its mean: centroid
	// i's mean sits at rank cum_i + w_i/2. Interpolate linearly between
	// successive (rank, mean) anchors, with (0, min) and (count, max) as
	// the outermost anchors.
	prevMean, prevRank := s.MinV, 0.0
	var cum float64
	for _, c := range cs {
		rank := cum + float64(c.Weight)/2
		if target < rank {
			return s.interp(target, prevRank, prevMean, rank, c.Mean)
		}
		prevMean, prevRank = c.Mean, rank
		cum += float64(c.Weight)
	}
	return s.interp(target, prevRank, prevMean, float64(s.Count), s.MaxV)
}

// QuantileDuration returns Quantile as a duration.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

func (s *Sketch) interp(target, r0, v0, r1, v1 float64) float64 {
	v := v0
	if r1 > r0 {
		v = v0 + (v1-v0)*(target-r0)/(r1-r0)
	}
	if v < s.MinV {
		v = s.MinV
	}
	if v > s.MaxV {
		v = s.MaxV
	}
	return v
}

// QuantileErrorBound returns the documented rank-error bound ε(q): the
// value Quantile(q) returns lies between the stream's exact quantiles
// at ranks q−ε and q+ε. A centroid at q holds at most one k-unit of
// mass, ≈ 2π·√(q·(1−q))·N/Compression observations, and the centering
// assumption can be off by half of that; the documented bound doubles
// the structural π·√(q(1−q))/Compression to absorb merge drift, plus
// one observation of discreteness slack. It shrinks toward the tails;
// typical error is several times smaller still. Tests and the
// ingested-vs-offline verifier both consume this bound, so loosening it
// is a visible contract change.
func (s *Sketch) QuantileErrorBound(q float64) float64 {
	s.normalize()
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	eps := 2 * math.Pi * math.Sqrt(q*(1-q)) / s.Compression
	if s.Count > 0 {
		eps += 1 / float64(s.Count)
	}
	return eps
}

// maxCentroids is the validation cap on the centroid list for a given
// compression. The structural bound is ~compression+2 at any stream
// length (adjacent kept centroids jointly span more than one k-unit of
// the compression/2 total); the cap adds a little slack for rounding
// at the k-scale extremes so a legitimate encoder is never rejected,
// and anything past it is a malformed or hostile wire sketch.
func maxCentroids(compression float64) int {
	return int(compression) + 16
}

// Valid rejects sketches that would poison aggregates when merged —
// the wire-facing checks a server runs on device-posted summaries.
func (s *Sketch) Valid() error {
	if math.IsNaN(s.Compression) || s.Compression < MinSketchCompression || s.Compression > MaxSketchCompression {
		return fmt.Errorf("agg: sketch compression %v outside [%d,%d]",
			s.Compression, MinSketchCompression, MaxSketchCompression)
	}
	if s.Count < 0 {
		return fmt.Errorf("agg: sketch count %d negative", s.Count)
	}
	if len(s.Centroids) > maxCentroids(s.Compression) {
		return fmt.Errorf("agg: sketch has %d centroids, cap %d for compression %g",
			len(s.Centroids), maxCentroids(s.Compression), s.Compression)
	}
	var sum int64
	prev := math.Inf(-1)
	for i, c := range s.Centroids {
		if c.Weight < 1 || c.Weight > s.Count {
			return fmt.Errorf("agg: sketch centroid %d weight %d outside [1,%d]", i, c.Weight, s.Count)
		}
		if math.IsNaN(c.Mean) || math.IsInf(c.Mean, 0) {
			return fmt.Errorf("agg: sketch centroid %d has non-finite mean", i)
		}
		if c.Mean < prev {
			return fmt.Errorf("agg: sketch centroids not sorted at %d", i)
		}
		prev = c.Mean
		sum += c.Weight
		// Each weight is bounded by Count above, so the running sum can
		// overflow at most once per step — going negative or past Count —
		// before the final equality check; catching it here keeps a
		// hostile wire sketch from wrapping the sum back to a plausible
		// total.
		if sum < 0 || sum > s.Count {
			return fmt.Errorf("agg: sketch centroid weights exceed count %d", s.Count)
		}
	}
	if sum+int64(len(s.buf)) != s.Count {
		return fmt.Errorf("agg: sketch count %d != centroid weight sum %d", s.Count, sum+int64(len(s.buf)))
	}
	if s.Count > 0 {
		if math.IsNaN(s.MinV) || math.IsInf(s.MinV, 0) || math.IsNaN(s.MaxV) || math.IsInf(s.MaxV, 0) {
			return errors.New("agg: sketch min/max not finite")
		}
		if s.MinV > s.MaxV {
			return fmt.Errorf("agg: sketch min %v above max %v", s.MinV, s.MaxV)
		}
		if len(s.Centroids) > 0 &&
			(s.Centroids[0].Mean < s.MinV || s.Centroids[len(s.Centroids)-1].Mean > s.MaxV) {
			return errors.New("agg: sketch centroid means outside [min,max]")
		}
	}
	return nil
}

// sketchWire is the JSON shape; the buffer is always flushed into
// centroids before encoding, so the wire form is canonical.
type sketchWire struct {
	Compression float64    `json:"compression"`
	Count       int64      `json:"count"`
	Min         float64    `json:"min"`
	Max         float64    `json:"max"`
	Centroids   []Centroid `json:"centroids,omitempty"`
}

// MarshalJSON flushes and encodes the canonical form.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	s.Flush()
	return json.Marshal(sketchWire{
		Compression: s.Compression,
		Count:       s.Count,
		Min:         s.MinV,
		Max:         s.MaxV,
		Centroids:   s.Centroids,
	})
}

// UnmarshalJSON decodes the canonical form.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var w sketchWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Sketch{
		Compression: w.Compression,
		Count:       w.Count,
		MinV:        w.Min,
		MaxV:        w.Max,
		Centroids:   w.Centroids,
	}
	return nil
}
