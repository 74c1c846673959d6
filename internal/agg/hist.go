package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Hist is a mergeable fixed-range histogram over durations. Counts of
// two histograms with identical geometry add exactly, so — unlike exact
// quantiles — histogram-based quantile estimates are order- and
// partition-independent.
//
// Storage is windowed: one slice holds the histPage-bin pages from the
// page of the first non-zero bin to the page of the last, and grows
// when an observation lands outside it. RTTs from one device model
// cluster in a few pages of the standard geometry's 16, so a fleet
// cell's histograms hold a few hundred bins instead of a thousand each.
// The window is a function of the counts alone (and counts never
// decrease), so two histograms holding equal counts are
// reflect.DeepEqual however they were built; an empty histogram holds
// no window at all.
//
// The JSON form is the dense {"lo_ns","hi_ns","counts":[…],"under",
// "over"} object, every bin listed.
type Hist struct {
	Lo    time.Duration
	Hi    time.Duration
	Under int64
	Over  int64

	bins int     // geometry: bins across [Lo, Hi)
	base int     // first bin win holds; a multiple of histPage
	win  []int64 // counts of bins base … base+len(win)-1; nil while every bin is empty
}

// histPage is the window's growth unit in bins. 64 bins is 32 ms at
// the standard geometry: narrow enough that a device model's RTTs fill
// most of the pages they touch, wide enough that a window seldom
// grows once a cell is warm.
const histPage = 64

// Campaign-level user-RTT histogram geometry: 0.5 ms resolution up to
// 500 ms, which covers every scenario in the paper (the worst cellular
// promotions excepted — those land in Over).
const (
	DurationHistLo   = 0
	DurationHistHi   = 500 * time.Millisecond
	DurationHistBins = 1000
)

// NewHist builds a histogram with the given geometry.
func NewHist(lo, hi time.Duration, bins int) *Hist {
	if bins <= 0 {
		bins = 1
	}
	return &Hist{Lo: lo, Hi: hi, bins: bins}
}

// NewDurationHist builds a histogram with the repo-standard user-RTT
// geometry, shared by fleet campaign reports and ingest windows so
// their quantile estimates are directly comparable.
func NewDurationHist() *Hist { return NewHist(DurationHistLo, DurationHistHi, DurationHistBins) }

// Bins returns the number of bins across [Lo, Hi).
func (h *Hist) Bins() int { return h.bins }

// Count returns bin i's count (0 for any bin outside the geometry).
func (h *Hist) Count(i int) int64 {
	if j := i - h.base; uint(j) < uint(len(h.win)) {
		return h.win[j]
	}
	return 0
}

// EachBin calls fn for every non-zero bin, in bin order.
func (h *Hist) EachBin(fn func(bin int, count int64)) {
	for j, c := range h.win {
		if c != 0 {
			fn(h.base+j, c)
		}
	}
}

// BucketWidth returns the width of one bin.
func (h *Hist) BucketWidth() time.Duration {
	if h.bins == 0 {
		return 0
	}
	return (h.Hi - h.Lo) / time.Duration(h.bins)
}

// Add folds one duration in.
func (h *Hist) Add(d time.Duration) { h.AddN(d, 1) }

// AddN folds n copies of d in.
func (h *Hist) AddN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	switch {
	case d < h.Lo:
		h.Under += n
	case d >= h.Hi:
		h.Over += n
	default:
		idx := int(int64(d-h.Lo) * int64(h.bins) / int64(h.Hi-h.Lo))
		if idx >= h.bins {
			idx = h.bins - 1
		}
		// The in-window case inline (the serial fold path's per-RTT
		// cost); AddBin grows the window.
		if j := idx - h.base; uint(j) < uint(len(h.win)) {
			h.win[j] += n
			return
		}
		h.AddBin(idx, n)
	}
}

// AddBin adds n copies to bin i (0 ≤ i < Bins()) — the entry point for
// decoders that carry bin indices rather than durations. n ≤ 0 is a
// no-op, as in AddN.
func (h *Hist) AddBin(i int, n int64) {
	if n <= 0 {
		return
	}
	j := i - h.base
	if uint(j) >= uint(len(h.win)) {
		h.Cover(i, i)
		j = i - h.base
	}
	h.win[j] += n
}

// AddMulti folds a run of durations in one call — the ingest fold
// path's batch entry point. Bin counts are integers, so the result is
// identical to repeated Add in any order; the win is hoisting the
// geometry and window loads out of the per-observation loop, whose
// in-window test is one subtract and compare. Growth is out of line.
func (h *Hist) AddMulti(ds []time.Duration) {
	lo, hi := h.Lo, h.Hi
	bins := h.bins
	nb := int64(bins)
	span := int64(hi - lo)
	under, over := h.Under, h.Over
	base, win := h.base, h.win
	for _, d := range ds {
		switch {
		case d < lo:
			under++
		case d >= hi:
			over++
		default:
			idx := int(int64(d-lo) * nb / span)
			if idx >= bins {
				idx = bins - 1
			}
			j := idx - base
			if uint(j) >= uint(len(win)) {
				h.Cover(idx, idx)
				base, win = h.base, h.win
				j = idx - base
			}
			win[j]++
		}
	}
	h.Under, h.Over = under, over
}

// Cover grows the window, in one allocation, to span bins first…last
// (0 ≤ first ≤ last < Bins()) as well as the bins it already spans. A
// decoder that knows a sparse run's extent calls it once before adding
// the run bin by bin; the window is back in its canonical layout once
// bins first and last both hold counts, so a caller must only Cover
// bins it is about to fill. Bins outside the geometry are a caller bug
// (decoders check them first) and panic.
func (h *Hist) Cover(first, last int) {
	if first < 0 || last < first || last >= h.bins {
		panic(fmt.Sprintf("agg: Hist.Cover(%d, %d) outside %d bins", first, last, h.bins))
	}
	lo := first / histPage * histPage
	hi := (last/histPage + 1) * histPage
	if len(h.win) > 0 {
		lo = min(lo, h.base)
		hi = max(hi, h.base+len(h.win))
	}
	hi = min(hi, h.bins)
	if lo == h.base && hi-lo == len(h.win) {
		return
	}
	win := make([]int64, hi-lo)
	if len(h.win) > 0 {
		copy(win[h.base-lo:], h.win)
	}
	h.base, h.win = lo, win
}

// CheckGeometry reports whether o can merge into h, without mutating
// either. Callers that merge several aggregates as one transaction
// (fleet groups, ingest cells) check every histogram first so a
// geometry mismatch cannot leave the receiver half-merged.
func (h *Hist) CheckGeometry(o *Hist) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || h.bins != o.bins {
		return fmt.Errorf("agg: merging histograms with different geometry: [%v,%v)×%d vs [%v,%v)×%d",
			h.Lo, h.Hi, h.bins, o.Lo, o.Hi, o.bins)
	}
	return nil
}

// Merge adds another histogram's counts; geometries must match.
func (h *Hist) Merge(o *Hist) error {
	if o == nil {
		return nil
	}
	if err := h.CheckGeometry(o); err != nil {
		return err
	}
	h.Under += o.Under
	h.Over += o.Over
	if len(o.win) == 0 {
		return nil
	}
	h.Cover(o.base, o.base+len(o.win)-1)
	dst := h.win[o.base-h.base:][:len(o.win)]
	for i, c := range o.win {
		dst[i] += c
	}
	return nil
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	if h == nil {
		return nil
	}
	c := *h
	if h.win != nil {
		c.win = make([]int64, len(h.win))
		copy(c.win, h.win)
	}
	return &c
}

// N returns the total count including out-of-range observations.
func (h *Hist) N() int64 {
	n := h.Under + h.Over
	for _, c := range h.win {
		n += c
	}
	return n
}

// Quantile estimates the q-th quantile (0..1) by interpolating within
// the bin where the cumulative count crosses q·N, assuming the bin's
// mass is spread uniformly across its width — snapping to the bin's
// upper edge, as this used to do, adds a systematic upward bias of up
// to one bin width (0.5 ms at the standard geometry). Under-range mass
// resolves to Lo and over-range mass to Hi; a cell with Over > 0 has
// its upper quantiles saturated at Hi, which callers should surface
// (the sketch-backed quantile path exists for exactly that case).
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.N()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := h.Under
	if cum >= target {
		return h.Lo
	}
	width := float64(h.Hi-h.Lo) / float64(h.bins)
	for j, c := range h.win {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := float64(target-cum) / float64(c)
			return h.Lo + time.Duration((float64(h.base+j)+frac)*width)
		}
		cum += c
	}
	return h.Hi
}

// MarshalJSON encodes the dense form, byte for byte what encoding/json
// writes for {Lo, Hi, Counts []int64, Under, Over} with those field
// tags; a zero Hist (no geometry) encodes its counts as null.
func (h *Hist) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 80+2*h.bins+8*len(h.win))
	b = append(b, `{"lo_ns":`...)
	b = strconv.AppendInt(b, int64(h.Lo), 10)
	b = append(b, `,"hi_ns":`...)
	b = strconv.AppendInt(b, int64(h.Hi), 10)
	b = append(b, `,"counts":`...)
	if h.bins == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := 0; i < h.bins; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, h.Count(i), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"under":`...)
	b = strconv.AppendInt(b, h.Under, 10)
	b = append(b, `,"over":`...)
	b = strconv.AppendInt(b, h.Over, 10)
	return append(b, '}'), nil
}

// histJSON is the JSON envelope. encoding/json parses the object —
// key matching, unknown fields, duplicate keys — exactly as it did for
// the dense struct; the counts array is handed over raw and scanned by
// eachJSONCount, so a decode allocates the window and never the dense
// array.
type histJSON struct {
	Lo     time.Duration `json:"lo_ns"`
	Hi     time.Duration `json:"hi_ns"`
	Counts rawCounts     `json:"counts"`
	Under  int64         `json:"under"`
	Over   int64         `json:"over"`
}

// rawCounts captures the counts value unparsed. It aliases the
// document being decoded, which outlives its one use inside
// Hist.UnmarshalJSON. A second counts key is refused: encoding/json
// would decode it over the first array in place, leaving bins the
// second one nulls or omits at the first one's values.
type rawCounts struct {
	raw []byte
	set bool
}

func (r *rawCounts) UnmarshalJSON(b []byte) error {
	if r.set {
		return errors.New("agg: histogram counts given twice")
	}
	r.raw, r.set = b, true
	return nil
}

// UnmarshalJSON decodes the dense form. It accepts what encoding/json
// accepts for the dense struct, except bin counts that are negative
// (counts never decrease, so no histogram holds one), an empty counts
// array (a geometry needs at least one bin) and a repeated counts key.
// A missing or null counts decodes to a zero Hist, which encodes it.
func (h *Hist) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var w histJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*h = Hist{Lo: w.Lo, Hi: w.Hi, Under: w.Under, Over: w.Over}
	raw := w.Counts.raw
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	first, last := -1, -1
	bins, err := eachJSONCount(raw, func(i int, _ int64) {
		if first < 0 {
			first = i
		}
		last = i
	})
	if err != nil {
		return err
	}
	if bins == 0 {
		return errors.New("agg: histogram counts empty")
	}
	h.bins = bins
	if first >= 0 {
		h.Cover(first, last)
		_, err = eachJSONCount(raw, h.AddBin)
	}
	return err
}

// eachJSONCount scans a JSON array of bin counts, calling fn for each
// non-zero one, and returns the array's length. raw is one JSON value
// that encoding/json has already checked for syntax; an element
// decodes the way encoding/json decodes into an int64 (a null is 0,
// anything but an integer literal in range is an error), and a
// negative count is an error.
func eachJSONCount(raw []byte, fn func(bin int, count int64)) (int, error) {
	i := skipJSONSpace(raw, 0)
	if i >= len(raw) || raw[i] != '[' {
		return 0, errors.New("agg: histogram counts not an array")
	}
	i = skipJSONSpace(raw, i+1)
	if i < len(raw) && raw[i] == ']' {
		return 0, nil
	}
	for n := 0; ; n++ {
		j := i
		for j < len(raw) && raw[j] != ',' && raw[j] != ']' && !isJSONSpace(raw[j]) {
			j++
		}
		c, err := parseJSONCount(raw[i:j])
		if err != nil {
			return 0, fmt.Errorf("agg: histogram bin %d: %w", n, err)
		}
		if c != 0 {
			fn(n, c)
		}
		i = skipJSONSpace(raw, j)
		if i >= len(raw) {
			return 0, errors.New("agg: histogram counts unterminated")
		}
		if raw[i] == ']' {
			return n + 1, nil
		}
		i = skipJSONSpace(raw, i+1) // past the ','
	}
}

// parseJSONCount decodes one array element as a non-negative int64.
func parseJSONCount(tok []byte) (int64, error) {
	if string(tok) == "null" {
		return 0, nil
	}
	neg := len(tok) > 0 && tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	if len(digits) == 0 {
		return 0, fmt.Errorf("count %q is not an integer", tok)
	}
	var v int64
	for _, ch := range digits {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("count %q is not an integer", tok)
		}
		if v > (math.MaxInt64-int64(ch-'0'))/10 {
			return 0, fmt.Errorf("count %q overflows int64", tok)
		}
		v = v*10 + int64(ch-'0')
	}
	if neg && v != 0 {
		return 0, fmt.Errorf("count %q is negative", tok)
	}
	return v, nil
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}
