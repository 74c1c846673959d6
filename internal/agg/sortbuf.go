package agg

import (
	"math"
	"slices"
	"sync"
)

// Flush-time workspace. A compression pass needs a merged centroid
// list roughly the size of centroids+buffer and, for the radix sort,
// two key buffers the size of the buffer. Held per sketch that would
// pin tens of KiB on every resident cell aggregate, so the workspace
// is pooled package-wide instead: peak memory tracks concurrent
// flushes (a handful of fold workers), not live sketches, and a
// steady-state flush still allocates nothing.
type flushScratch struct {
	merged    []Centroid
	keys, tmp []uint64
	// obs and flat hold a merge argument's sorted buffer copy and its
	// compressed centroids, so Sketch.Merge never clones its argument;
	// weighted holds the argument's centroids heavier than one
	// observation, the only ones a merge compresses.
	obs      []float64
	flat     []Centroid
	weighted []Centroid
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// growU64 resizes s to n, reallocating only when capacity is short.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// radixMinLen is the buffer length below which the comparison sort
// wins — the radix transform and per-pass histogram have a flat cost
// that only pays for itself on flush-sized buffers.
const radixMinLen = 128

const f64SignBit = 1 << 63

// sortObservations sorts a flush buffer ascending. All-finite buffers
// — every buffer the fold path produces, since RTTs arrive as integer
// nanoseconds — take an LSD radix sort over the order-preserving bit
// transform of IEEE-754 doubles (flip the sign bit on non-negatives,
// all bits on negatives), which replaces the comparison sort's
// branch-heavy partitioning with sequential counting passes. Buffers
// containing NaN fall back to slices.Sort, whose NaN-first order is
// part of cmp.Less's contract; the bit transform would order NaNs by
// sign bit instead.
func (fs *flushScratch) sortObservations(vs []float64) {
	if len(vs) < radixMinLen {
		slices.Sort(vs)
		return
	}
	n := len(vs)
	keys := growU64(fs.keys, n)
	tmp := growU64(fs.tmp, n)
	// Transform, NaN-scan, and XOR-fold in one pass: a byte position
	// where every key matches keys[0] contributes nothing to the order,
	// and real buffers are narrow-range integer-valued floats (RTTs
	// share an exponent and have trailing mantissa zeros), so typically
	// only 3–4 of the 8 byte positions are live — the rest skip their
	// counting and scatter passes entirely.
	first := math.Float64bits(vs[0])
	if first&f64SignBit != 0 {
		first = ^first
	} else {
		first |= f64SignBit
	}
	var varying uint64
	for i, v := range vs {
		if v != v { // NaN: only reachable through direct API use
			slices.Sort(vs)
			return
		}
		b := math.Float64bits(v)
		if b&f64SignBit != 0 {
			b = ^b
		} else {
			b |= f64SignBit
		}
		keys[i] = b
		varying |= b ^ first
	}
	// 8 bits per pass, least significant first; dead byte positions
	// cost nothing.
	var counts [256]int32
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		clear(counts[:])
		for _, k := range keys {
			counts[(k>>shift)&0xff]++
		}
		pos := int32(0)
		for b := range counts {
			c := counts[b]
			counts[b] = pos
			pos += c
		}
		for _, k := range keys {
			b := (k >> shift) & 0xff
			tmp[counts[b]] = k
			counts[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		if k&f64SignBit != 0 {
			k ^= f64SignBit
		} else {
			k = ^k
		}
		vs[i] = math.Float64frombits(k)
	}
	fs.keys, fs.tmp = keys, tmp
}
