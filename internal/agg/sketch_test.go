package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile returns the ECDF quantile of a sorted sample: the
// smallest value whose rank is at least q·n.
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// assertQuantileWithinBound checks the sketch's documented contract:
// Quantile(q) lies between the exact sample quantiles at ranks q−ε and
// q+ε, with ε = QuantileErrorBound(q).
func assertQuantileWithinBound(t *testing.T, tag string, sk *Sketch, sorted []float64, q float64) {
	t.Helper()
	eps := sk.QuantileErrorBound(q)
	lo := exactQuantile(sorted, q-eps)
	hi := exactQuantile(sorted, q+eps)
	est := sk.Quantile(q)
	slack := 1e-9 * math.Max(math.Abs(lo), math.Abs(hi))
	if est < lo-slack || est > hi+slack {
		t.Errorf("%s: q=%g estimate %g outside exact rank bracket [%g,%g] (ε=%g, n=%d)",
			tag, q, est, lo, hi, eps, len(sorted))
	}
}

// heavyTailSample draws the acceptance workload: 90% of observations in
// a benign 10–100 ms band, 10% spread across 0.5–5 s — the cellular-
// promotion / PSM-sweep shape whose p99 the fixed-range histogram
// clamps to exactly 500 ms.
func heavyTailSample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(10) == 0 {
			out[i] = (500 + 4500*rng.Float64()) * float64(time.Millisecond)
		} else {
			out[i] = (10 + 90*rng.Float64()) * float64(time.Millisecond)
		}
	}
	return out
}

var sketchTestQs = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}

// TestSketchMergeProperty is the tentpole's core law: sketches built
// over shuffled disjoint chunks and merged in arbitrary order answer
// every quantile within the documented error bound of the exact sample
// — same contract as the whole-stream sketch.
func TestSketchMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(20000)
		k := 1 + rng.Intn(16)
		var sample []float64
		if trial%2 == 0 {
			sample = heavyTailSample(rng, n)
		} else {
			sample = make([]float64, n)
			for i := range sample {
				sample[i] = math.Exp(rng.NormFloat64()*1.2+3.2) * float64(time.Millisecond)
			}
		}

		whole := NewSketch(0)
		for _, v := range sample {
			whole.Add(v)
		}

		shuffled := append([]float64(nil), sample...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		parts := make([]*Sketch, k)
		for i := range parts {
			parts[i] = NewSketch(0)
		}
		for i, v := range shuffled {
			parts[i%k].Add(v)
		}
		rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		merged := NewSketch(0)
		for _, p := range parts {
			merged.Merge(p)
		}

		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		if merged.Count != int64(n) || whole.Count != int64(n) {
			t.Fatalf("trial %d: counts %d/%d != %d", trial, merged.Count, whole.Count, n)
		}
		if merged.MinV != sorted[0] || merged.MaxV != sorted[n-1] ||
			whole.MinV != sorted[0] || whole.MaxV != sorted[n-1] {
			t.Fatalf("trial %d: min/max not exact", trial)
		}
		for _, q := range sketchTestQs {
			assertQuantileWithinBound(t, "whole", whole, sorted, q)
			assertQuantileWithinBound(t, "merged", merged, sorted, q)
		}
	}
}

// sketchState is a sketch's full observable state, buffer included,
// for byte-level comparisons (nil and empty slices compare equal).
func sketchState(s *Sketch) []byte {
	var b []byte
	for _, v := range []float64{s.Compression, s.MinV, s.MaxV} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendVarint(b, s.Count)
	b = binary.AppendUvarint(b, uint64(len(s.Centroids)))
	for _, c := range s.Centroids {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Mean))
		b = binary.AppendVarint(b, c.Weight)
	}
	b = binary.AppendUvarint(b, uint64(len(s.buf)))
	for _, v := range s.buf {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestSketchMergeBufferedArgMatchesClone pins the clone-free Merge:
// merging an argument that still buffers observations must be
// byte-identical to merging a flushed clone of it (the pre-scratch
// implementation), across random compressions and buffer fills, and
// must leave the argument untouched.
func TestSketchMergeBufferedArgMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	comps := []float64{0, 5, MinSketchCompression, 50, DefaultSketchCompression, MaxSketchCompression, 5000}
	fill := func(s *Sketch) {
		n := rng.Intn(3 * s.bufLimit())
		for i := 0; i < n; i++ {
			v := rng.ExpFloat64() * 4e6
			if rng.Intn(4) == 0 {
				v = float64(rng.Intn(8)) * 1e6 // ties with centroids and each other
			}
			s.Add(v)
		}
	}
	for trial := 0; trial < 500; trial++ {
		dst := &Sketch{Compression: comps[rng.Intn(len(comps))]}
		src := &Sketch{Compression: comps[rng.Intn(len(comps))]}
		fill(dst)
		fill(src)
		if trial%5 == 0 {
			src.Add(1) // at least one buffered observation
		}
		before := sketchState(src)

		want := dst.Clone()
		flat := src.Clone()
		flat.Flush()
		want.Merge(flat)

		dst.Merge(src)
		if got := sketchState(dst); !bytes.Equal(got, sketchState(want)) {
			t.Fatalf("trial %d: Merge of a buffered argument differs from Merge of its flushed clone", trial)
		}
		if !bytes.Equal(sketchState(src), before) {
			t.Fatalf("trial %d: Merge mutated its argument", trial)
		}
	}
}

// TestSketchHeavyTailVsHistogram is the before/after of the bugfix: on
// the heavy-tail workload the fixed-range histogram pins p99 at exactly
// its 500 ms cap while the sketch lands within its error bound of the
// exact sample p99, seconds past the cap.
func TestSketchHeavyTailVsHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sample := heavyTailSample(rng, 50000)
	sk := NewSketch(0)
	h := NewDurationHist()
	for _, v := range sample {
		sk.Add(v)
		h.Add(time.Duration(v))
	}
	if h.Over == 0 {
		t.Fatal("workload should overflow the histogram range")
	}
	if got := h.Quantile(0.99); got != DurationHistHi {
		t.Fatalf("histogram p99 %v, want saturation at %v", got, DurationHistHi)
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		assertQuantileWithinBound(t, "heavy-tail", sk, sorted, q)
	}
	// The whole point: the sketch p99 must sit far beyond the clamp.
	if p99 := sk.Quantile(0.99); p99 < 2*float64(DurationHistHi) {
		t.Fatalf("sketch p99 %v ns suspiciously close to histogram cap", p99)
	}
}

// TestSketchSmallAndExtremes covers the degenerate sizes where the
// sketch must be exact, plus the q≤0 / q≥1 anchors.
func TestSketchSmallAndExtremes(t *testing.T) {
	var empty Sketch
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty sketch quantile should be 0")
	}
	sk := NewSketch(0)
	sk.AddDuration(30 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 1} {
		if got := sk.QuantileDuration(q); got != 30*time.Millisecond {
			t.Fatalf("single observation q=%g: %v", q, got)
		}
	}
	sk2 := NewSketch(0)
	for _, ms := range []float64{10, 20, 30, 40, 50} {
		sk2.Add(ms)
	}
	if sk2.Quantile(0) != 10 || sk2.Quantile(1) != 50 {
		t.Fatalf("extremes not exact: %v/%v", sk2.Quantile(0), sk2.Quantile(1))
	}
	mid := sk2.Quantile(0.5)
	if mid < 20 || mid > 40 {
		t.Fatalf("median %v outside [20,40]", mid)
	}
}

// TestSketchDeterministicAndBounded asserts the two structural
// guarantees: identical insertion order yields identical centroids, and
// the centroid count stays within the validation cap.
func TestSketchDeterministicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sample := heavyTailSample(rng, 30000)
	a, b := NewSketch(0), NewSketch(0)
	for _, v := range sample {
		a.Add(v)
		b.Add(v)
	}
	a.Flush()
	b.Flush()
	if len(a.Centroids) != len(b.Centroids) {
		t.Fatalf("same input order, different centroid counts: %d vs %d", len(a.Centroids), len(b.Centroids))
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("centroid %d differs: %+v vs %+v", i, a.Centroids[i], b.Centroids[i])
		}
	}
	if cap := maxCentroids(a.Compression); len(a.Centroids) > cap {
		t.Fatalf("%d centroids exceeds cap %d", len(a.Centroids), cap)
	}
	if err := a.Valid(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchJSONRoundTrip checks the wire form: canonical (flushed) on
// encode, quantile-preserving on decode, and Valid catches poison.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sk := NewSketch(100)
	for i := 0; i < 5000; i++ {
		sk.Add(rng.Float64() * 1e8)
	}
	raw, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Valid(); err != nil {
		t.Fatal(err)
	}
	if back.Count != sk.Count || back.MinV != sk.MinV || back.MaxV != sk.MaxV {
		t.Fatalf("round trip lost totals: %+v", back)
	}
	for _, q := range sketchTestQs {
		if got, want := back.Quantile(q), sk.Quantile(q); got != want {
			t.Fatalf("q=%g: %v != %v after round trip", q, got, want)
		}
	}

	bad := []Sketch{
		{Compression: 5},              // compression under floor
		{Compression: 200, Count: -1}, // negative count
		{Compression: 200, Count: 2, Centroids: []Centroid{{Mean: 1, Weight: 1}}},                       // count mismatch
		{Compression: 200, Count: 2, Centroids: []Centroid{{Mean: 2, Weight: 1}, {Mean: 1, Weight: 1}}}, // unsorted
		{Compression: 200, Count: 1, Centroids: []Centroid{{Mean: math.NaN(), Weight: 1}}},              // NaN mean
		{Compression: 200, Count: 1, MinV: 2, MaxV: 1, Centroids: []Centroid{{Mean: 1.5, Weight: 1}}},   // min>max
		{Compression: 200, Count: 1, MinV: 0, MaxV: 1, Centroids: []Centroid{{Mean: 5, Weight: 1}}},     // mean>max
		{Compression: 200, Count: 1, Centroids: []Centroid{{Mean: 1, Weight: 0}, {Mean: 2, Weight: 1}}}, // zero weight
	}
	for i, b := range bad {
		if err := b.Valid(); err == nil {
			t.Errorf("bad sketch %d passed validation", i)
		}
	}
}

// TestSketchMergeShifted checks the puncture merge: every merged value
// moves by delta, clamped at the floor, count preserved, argument
// untouched — and the result is byte-identical to merging a shifted
// clone (shiftedClone, the reference kept here), for buffered and
// flushed arguments alike.
func TestSketchMergeShifted(t *testing.T) {
	sk := NewSketch(0)
	for _, ms := range []float64{5, 10, 50, 100} {
		sk.Add(ms)
	}
	shifted := NewSketch(0)
	shifted.MergeShifted(sk, -20, 0)
	if shifted.Count != sk.Count {
		t.Fatalf("count changed: %d != %d", shifted.Count, sk.Count)
	}
	if shifted.MinV != 0 || shifted.MaxV != 80 {
		t.Fatalf("shifted min/max %v/%v, want 0/80", shifted.MinV, shifted.MaxV)
	}
	if med := shifted.Quantile(0.5); med < 0 || med > 30 {
		t.Fatalf("shifted median %v", med)
	}
	if sk.MinV != 5 || sk.MaxV != 100 || len(sk.buf) != 4 {
		t.Fatal("MergeShifted mutated its argument")
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		dst := NewSketch(float64(20 + rng.Intn(300)))
		for i, n := 0, rng.Intn(600); i < n; i++ {
			dst.Add(rng.ExpFloat64() * 40e6)
		}
		o := NewSketch(float64(20 + rng.Intn(300)))
		for i, n := 0, 1+rng.Intn(2000); i < n; i++ {
			o.Add(rng.ExpFloat64() * 30e6)
		}
		if rng.Intn(2) == 0 {
			o.Flush()
		}
		before, _ := json.Marshal(o.Clone())
		delta := -rng.Float64() * 60e6
		want := dst.Clone()
		want.Merge(shiftedClone(o, delta, 0))
		dst.MergeShifted(o, delta, 0)
		if len(o.buf) > 0 {
			after, _ := json.Marshal(o.Clone())
			if string(before) != string(after) {
				t.Fatalf("trial %d: MergeShifted mutated its argument", trial)
			}
		}
		got, _ := json.Marshal(dst)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			t.Fatalf("trial %d: MergeShifted diverges from Merge(shifted clone)\n got %s\nwant %s", trial, got, exp)
		}
	}
}

// shiftedClone is the clone-based reference MergeShifted replaced: an
// independent flushed copy with delta added to every value, clamped
// from below at floor.
func shiftedClone(s *Sketch, delta, floor float64) *Sketch {
	c := s.Clone()
	c.Flush()
	clamp := func(v float64) float64 {
		if v += delta; v < floor {
			return floor
		}
		return v
	}
	for i := range c.Centroids {
		c.Centroids[i].Mean = clamp(c.Centroids[i].Mean)
	}
	if c.Count > 0 {
		c.MinV = clamp(c.MinV)
		c.MaxV = clamp(c.MaxV)
	}
	return c
}

// TestSketchEachCentroidMatchesFlush: the walk visits exactly the
// centroids a Flush of a clone would hold, without flushing the sketch.
func TestSketchEachCentroidMatchesFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		sk := NewSketch(float64(20 + rng.Intn(300)))
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			sk.Add(rng.NormFloat64() * 1e6)
		}
		buffered := len(sk.buf)
		var got []Centroid
		sk.EachCentroid(func(c Centroid) { got = append(got, c) })
		flat := sk.Clone()
		flat.Flush()
		if len(got) != len(flat.Centroids) {
			t.Fatalf("trial %d: walked %d centroids, flush holds %d", trial, len(got), len(flat.Centroids))
		}
		for i := range got {
			if got[i] != flat.Centroids[i] {
				t.Fatalf("trial %d: centroid %d = %+v, want %+v", trial, i, got[i], flat.Centroids[i])
			}
		}
		if len(sk.buf) != buffered {
			t.Fatalf("trial %d: EachCentroid flushed the sketch", trial)
		}
	}
}

// TestMomentsAddNAndHistAddN pin the weighted-fold helpers the ingest
// path uses to fold device-posted sketch centroids.
func TestMomentsAddNAndHistAddN(t *testing.T) {
	var a, b Moments
	for i := 0; i < 5; i++ {
		a.Add(40)
	}
	a.Add(10)
	b.AddN(40, 5)
	b.AddN(10, 1)
	if b.N != a.N || b.Mean != a.Mean || b.MinV != a.MinV || b.MaxV != a.MaxV {
		t.Fatalf("AddN diverges from repeated Add: %+v vs %+v", b, a)
	}
	b.AddN(99, 0) // no-op
	if b.N != a.N {
		t.Fatal("AddN with n=0 folded something")
	}

	h := NewDurationHist()
	h.AddN(30*time.Millisecond, 3)
	h.AddN(-time.Millisecond, 2)
	h.AddN(time.Second, 4)
	if h.N() != 9 || h.Under != 2 || h.Over != 4 {
		t.Fatalf("AddN totals: n=%d under=%d over=%d", h.N(), h.Under, h.Over)
	}
}

// TestMergeSketchesCoverage pins the coverage rule: a sketch only
// survives an aggregate merge when both sides' observations are fully
// covered; otherwise serving its quantiles would pass a subset off as
// the whole distribution.
func TestMergeSketchesCoverage(t *testing.T) {
	mk := func(n int) *Sketch {
		s := NewSketch(0)
		for i := 0; i < n; i++ {
			s.Add(float64(i + 1))
		}
		return s
	}
	// Both covered: merged normally.
	dst := mk(10)
	MergeSketches(&dst, 10, mk(5), 5)
	if dst == nil || dst.Count != 15 {
		t.Fatalf("covered merge lost data: %+v", dst)
	}
	// Source side folded samples without a sketch: drop.
	dst = mk(10)
	MergeSketches(&dst, 10, nil, 100)
	if dst != nil {
		t.Fatal("merge with uncovered source kept a subset sketch")
	}
	// Destination is the pre-sketch record: stay nil, don't adopt.
	dst = nil
	MergeSketches(&dst, 100, mk(5), 5)
	if dst != nil {
		t.Fatal("uncovered destination adopted a subset sketch")
	}
	// Destination empty (0 observations): adopting is correct.
	dst = nil
	MergeSketches(&dst, 0, mk(5), 5)
	if dst == nil || dst.Count != 5 {
		t.Fatal("empty destination should adopt a covering sketch")
	}
	// Sketch undercounting its own aggregate (tampered record): drop.
	dst = mk(3)
	MergeSketches(&dst, 10, mk(5), 5)
	if dst != nil {
		t.Fatal("undercounting destination sketch survived")
	}
}

// TestMergeAdoptsCoarserCompression pins the error-bound honesty rule:
// merging in a lower-compression sketch coarsens the receiver, so
// QuantileErrorBound reflects the worst resolution in the data.
func TestMergeAdoptsCoarserCompression(t *testing.T) {
	fine := NewSketch(200)
	coarse := NewSketch(20)
	for i := 0; i < 1000; i++ {
		fine.Add(float64(i))
		coarse.Add(float64(i))
	}
	before := fine.QuantileErrorBound(0.5)
	fine.Merge(coarse)
	if fine.Compression != 20 {
		t.Fatalf("merged compression %g, want coarser 20", fine.Compression)
	}
	if after := fine.QuantileErrorBound(0.5); after <= before {
		t.Fatalf("error bound did not widen: %g <= %g", after, before)
	}
	if err := fine.Valid(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchZeroValueUsable pins the normalization guard: a zero-value
// Sketch (or one decoded from JSON with a missing/hostile compression,
// which never passes through NewSketch or Valid) must degrade to the
// default compression instead of collapsing every observation into one
// centroid with an infinite error bound.
func TestSketchZeroValueUsable(t *testing.T) {
	var s Sketch
	for i := 0; i < 2000; i++ {
		s.Add(float64(i))
	}
	s.Flush()
	if s.Compression != DefaultSketchCompression {
		t.Fatalf("compression %g, want default", s.Compression)
	}
	if len(s.Centroids) < 10 {
		t.Fatalf("zero-value sketch collapsed to %d centroids", len(s.Centroids))
	}
	if eps := s.QuantileErrorBound(0.5); math.IsInf(eps, 0) || eps > 0.1 {
		t.Fatalf("error bound %g", eps)
	}
	if med := s.Quantile(0.5); med < 900 || med > 1100 {
		t.Fatalf("median %g far from 1000", med)
	}

	hostile := Sketch{Compression: 1e12}
	hostile.Add(1)
	if hostile.Compression != MaxSketchCompression {
		t.Fatalf("hostile compression not clamped: %g", hostile.Compression)
	}
	zero := Sketch{Count: 5, Centroids: []Centroid{{Mean: 1, Weight: 5}}}
	zero.Merge(NewSketch(0))
	if zero.Compression != DefaultSketchCompression {
		t.Fatalf("merge did not normalize compression: %g", zero.Compression)
	}
}

// TestSketchValidWeightOverflow pins the overflow guard: centroid
// weights that wrap the int64 sum back to a plausible total must not
// pass validation.
func TestSketchValidWeightOverflow(t *testing.T) {
	big := int64(1) << 62
	s := Sketch{
		Compression: 200, Count: 4, MinV: 1, MaxV: 5,
		Centroids: []Centroid{{Mean: 1, Weight: big}, {Mean: 2, Weight: big},
			{Mean: 3, Weight: big}, {Mean: 4, Weight: big}, {Mean: 5, Weight: 4}},
	}
	if err := s.Valid(); err == nil {
		t.Fatal("overflowing weight sum passed validation")
	}
	one := Sketch{Compression: 200, Count: 1, MinV: 1, MaxV: 1,
		Centroids: []Centroid{{Mean: 1, Weight: 2}}}
	if err := one.Valid(); err == nil {
		t.Fatal("weight above count passed validation")
	}
}

// TestSketchMergeBuffersSingletons pins the merge rule: an argument's
// weight-1 centroids are observations and join the receiver's buffer
// the way Add would, so merging all-singleton arguments into a
// receiver that buffers observations leaves its centroids untouched
// until the buffer reaches bufLimit, and grows the buffer by each
// argument's count. Merge and MergeShifted apply the rule alike.
func TestSketchMergeBuffersSingletons(t *testing.T) {
	for _, shifted := range []bool{false, true} {
		dst := NewSketch(0)
		for i := 0; i < dst.bufLimit()+7; i++ {
			dst.Add(float64(i%97) * 1e5)
		}
		if len(dst.Centroids) == 0 || len(dst.buf) != 7 {
			t.Fatalf("setup: %d centroids, %d buffered", len(dst.Centroids), len(dst.buf))
		}
		src := NewSketch(0)
		for i := 0; i < 20; i++ {
			src.Add(3e6 + float64(i)*1e4)
		}
		src.Flush()
		for _, c := range src.Centroids {
			if c.Weight != 1 {
				t.Fatalf("setup: argument centroid %+v is not a singleton", c)
			}
		}
		centroids := append([]Centroid(nil), dst.Centroids...)
		for len(dst.buf)+int(src.Count) < dst.bufLimit() {
			buffered, count := len(dst.buf), dst.Count
			if shifted {
				dst.MergeShifted(src, -2e6, 0)
			} else {
				dst.Merge(src)
			}
			if len(dst.buf) != buffered+int(src.Count) || dst.Count != count+src.Count {
				t.Fatalf("shifted=%v: buffer %d → %d, count %d → %d after merging %d singletons",
					shifted, buffered, len(dst.buf), count, dst.Count, src.Count)
			}
			if len(dst.Centroids) != len(centroids) {
				t.Fatalf("shifted=%v: merge below the buffer limit compressed the receiver", shifted)
			}
			for i := range centroids {
				if dst.Centroids[i] != centroids[i] {
					t.Fatalf("shifted=%v: merge below the buffer limit changed centroid %d", shifted, i)
				}
			}
			if err := dst.Valid(); err != nil {
				t.Fatal(err)
			}
		}
		dst.Merge(src) // crosses the limit: exactly one flush
		if n := len(dst.buf); n >= dst.bufLimit() {
			t.Fatalf("shifted=%v: buffer holds %d ≥ limit %d", shifted, n, dst.bufLimit())
		}
		if err := dst.Valid(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSketchBufferStaysBelowLimit: across random sequences of Add,
// AddMulti, Merge and MergeShifted — mixed compressions, buffered and
// flushed arguments — the buffer is below bufLimit after every call
// and Valid's count identity (centroid mass + buffer = Count) holds.
func TestSketchBufferStaysBelowLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	comps := []float64{MinSketchCompression, 50, 100, DefaultSketchCompression, 500, MaxSketchCompression}
	arg := func() *Sketch {
		o := NewSketch(comps[rng.Intn(len(comps))])
		for i, n := 0, 1+rng.Intn(1500); i < n; i++ {
			o.Add(rng.ExpFloat64() * 30e6)
		}
		if rng.Intn(2) == 0 {
			o.Flush()
		}
		return o
	}
	for trial := 0; trial < 50; trial++ {
		s := NewSketch(comps[rng.Intn(len(comps))])
		for step := 0; step < 60; step++ {
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "Add"
				s.Add(rng.ExpFloat64() * 40e6)
			case 1:
				op = "AddMulti"
				vs := make([]float64, rng.Intn(700))
				for i := range vs {
					vs[i] = rng.ExpFloat64() * 40e6
				}
				s.AddMulti(vs)
			case 2:
				op = "Merge"
				s.Merge(arg())
			default:
				op = "MergeShifted"
				s.MergeShifted(arg(), -rng.Float64()*60e6, 0)
			}
			if n, limit := len(s.buf), s.bufLimit(); n >= limit {
				t.Fatalf("trial %d step %d: %s left %d buffered, limit %d", trial, step, op, n, limit)
			}
			if err := s.Valid(); err != nil {
				t.Fatalf("trial %d step %d: %s: %v", trial, step, op, err)
			}
		}
	}
}

// TestSketchSelfMerge: merging a sketch into itself, buffered or
// flushed, equals merging an independent copy — the singletons the
// merge appends to the receiver's buffer are not read back as input.
func TestSketchSelfMerge(t *testing.T) {
	for _, n := range []int{5, 150, 1000, 5000} {
		for _, flushed := range []bool{false, true} {
			s := NewSketch(0)
			for i := 0; i < n; i++ {
				s.Add(float64(i % 97))
			}
			if flushed {
				s.Flush()
			}
			want := s.Clone()
			want.Merge(s.Clone())
			s.Merge(s)
			if !bytes.Equal(sketchState(s), sketchState(want)) {
				t.Fatalf("n=%d flushed=%v: self-merge differs from merging a copy", n, flushed)
			}
			if err := s.Valid(); err != nil {
				t.Fatalf("n=%d flushed=%v: %v", n, flushed, err)
			}
		}
	}
}
