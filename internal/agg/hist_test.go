package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkCanonical asserts the windowed layout's invariant: no window
// when every bin is empty, else a page-aligned window whose first and
// last pages each hold a non-zero bin and which ends at a page edge or
// the last bin.
func checkCanonical(t *testing.T, h *Hist) {
	t.Helper()
	if len(h.win) == 0 {
		if h.win != nil || h.base != 0 {
			t.Fatalf("empty window not canonical: base %d, win %v", h.base, h.win)
		}
		return
	}
	end := h.base + len(h.win)
	if h.base%histPage != 0 || (end%histPage != 0 && end != h.bins) || end > h.bins {
		t.Fatalf("window [%d,%d) of %d bins not page-aligned", h.base, end, h.bins)
	}
	nonZero := func(win []int64) bool {
		for _, c := range win {
			if c != 0 {
				return true
			}
		}
		return false
	}
	firstPage := h.win[:min(histPage, len(h.win))]
	lastPage := h.win[(len(h.win)-1)/histPage*histPage:]
	if !nonZero(firstPage) || !nonZero(lastPage) {
		t.Fatalf("window [%d,%d) has an empty end page", h.base, end)
	}
}

// layoutSample draws a duration sample of one of several shapes: a
// narrow single-model cluster, a wide lognormal with out-of-range mass,
// out-of-range only, or empty.
func layoutSample(rng *rand.Rand) []time.Duration {
	switch rng.Intn(4) {
	case 0:
		c := time.Duration(rng.Int63n(int64(DurationHistHi)))
		out := make([]time.Duration, 1+rng.Intn(500))
		for i := range out {
			out[i] = c + time.Duration(rng.Int63n(int64(20*time.Millisecond)))
		}
		return out
	case 1:
		return sampleFor(rng, 1+rng.Intn(3000))
	case 2:
		out := make([]time.Duration, 1+rng.Intn(50))
		for i := range out {
			if i%2 == 0 {
				out[i] = -time.Millisecond
			} else {
				out[i] = DurationHistHi + time.Duration(i)
			}
		}
		return out
	default:
		return nil
	}
}

// TestHistLayoutProperty pins that the windowed layout is a function of
// the counted multiset alone: Add, AddN over grouped counts, AddMulti
// over random chunks, and Merge over random partitions built with any
// of those, in any order, plus Clone and a JSON round trip, all give
// reflect.DeepEqual histograms with identical N and quantiles.
func TestHistLayoutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		sample := layoutSample(rng)

		serial := NewDurationHist()
		for _, d := range sample {
			serial.Add(d)
		}
		checkCanonical(t, serial)

		grouped := NewDurationHist()
		counts := map[time.Duration]int64{}
		for _, d := range sample {
			counts[d]++
		}
		for d, n := range counts { // map order: a different order each run
			grouped.AddN(d, n)
		}

		batched := NewDurationHist()
		for rest := sample; len(rest) > 0; {
			n := 1 + rng.Intn(len(rest))
			batched.AddMulti(rest[:n])
			rest = rest[n:]
		}

		merged := NewDurationHist()
		for _, chunk := range chunkShuffle(rng, sample, 1+rng.Intn(8)) {
			part := NewDurationHist()
			if rng.Intn(2) == 0 {
				part.AddMulti(chunk)
			} else {
				for _, d := range chunk {
					part.Add(d)
				}
			}
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}

		blob, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(Hist)
		if err := json.Unmarshal(blob, decoded); err != nil {
			t.Fatal(err)
		}

		for name, h := range map[string]*Hist{
			"AddN": grouped, "AddMulti": batched, "Merge": merged,
			"Clone": serial.Clone(), "JSON": decoded,
		} {
			checkCanonical(t, h)
			if !reflect.DeepEqual(h, serial) {
				t.Fatalf("trial %d: %s layout differs from serial Add: base %d/%d, len %d/%d",
					trial, name, h.base, serial.base, len(h.win), len(serial.win))
			}
			if h.N() != serial.N() || h.N() != int64(len(sample)) {
				t.Fatalf("trial %d: %s N %d, serial %d, sample %d", trial, name, h.N(), serial.N(), len(sample))
			}
			for _, q := range qs {
				if h.Quantile(q) != serial.Quantile(q) {
					t.Fatalf("trial %d: %s q%.2f %v != %v", trial, name, q, h.Quantile(q), serial.Quantile(q))
				}
			}
		}
	}
}

// TestHistGeometryMismatchLeavesReceiver pins that a geometry mismatch
// fails CheckGeometry and Merge before either mutates the receiver.
func TestHistGeometryMismatchLeavesReceiver(t *testing.T) {
	h := NewDurationHist()
	for _, d := range sampleFor(rand.New(rand.NewSource(3)), 500) {
		h.Add(d)
	}
	before := h.Clone()
	for _, o := range []*Hist{
		NewHist(DurationHistLo, DurationHistHi, DurationHistBins/2),
		NewHist(DurationHistLo, DurationHistHi/2, DurationHistBins),
		NewHist(time.Millisecond, DurationHistHi, DurationHistBins),
	} {
		o.Add(10 * time.Millisecond)
		o.Add(-time.Millisecond)
		if err := h.CheckGeometry(o); err == nil {
			t.Fatalf("CheckGeometry accepted [%v,%v)×%d", o.Lo, o.Hi, o.Bins())
		}
		if err := h.Merge(o); err == nil {
			t.Fatalf("Merge accepted [%v,%v)×%d", o.Lo, o.Hi, o.Bins())
		}
		if !reflect.DeepEqual(h, before) {
			t.Fatalf("failed merge of [%v,%v)×%d mutated the receiver", o.Lo, o.Hi, o.Bins())
		}
	}
}

// denseHist is the struct Hist's JSON form was once encoded from by
// encoding/json; FuzzHistJSON holds the custom codec to it.
type denseHist struct {
	Lo     time.Duration `json:"lo_ns"`
	Hi     time.Duration `json:"hi_ns"`
	Counts []int64       `json:"counts"`
	Under  int64         `json:"under"`
	Over   int64         `json:"over"`
}

// histFromCounts builds the histogram AddN builds from h's counts: one
// AddN per non-zero bin at a duration inside it, or AddBin where the
// geometry is too fine or too wide for a duration to address one bin.
func histFromCounts(h *Hist) *Hist {
	if h.Bins() == 0 {
		return &Hist{Lo: h.Lo, Hi: h.Hi, Under: h.Under, Over: h.Over}
	}
	ref := NewHist(h.Lo, h.Hi, h.Bins())
	ref.Under, ref.Over = h.Under, h.Over
	span, nb := int64(h.Hi-h.Lo), int64(h.Bins())
	byDuration := h.Hi > h.Lo && span > 0 && span >= nb && span <= math.MaxInt64/nb
	for i := 0; i < h.Bins(); i++ {
		c := h.Count(i)
		switch {
		case c == 0:
		case byDuration:
			ref.AddN(h.Lo+time.Duration((int64(i)*span+nb-1)/nb), c)
		default:
			ref.AddBin(i, c)
		}
	}
	return ref
}

// allocatedBytes returns the heap bytes fn allocates, the least of a
// few runs so a stray background allocation does not count.
func allocatedBytes(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// histSink keeps allocatedBytes' reference allocation on the heap.
var histSink []int64

// FuzzHistJSON holds the custom Hist JSON codec to the dense
// encoding/json form it replaced. For any input that decodes:
//
//   - encoding/json decodes it into the dense struct too, and
//     re-marshalling the Hist gives exactly the bytes encoding/json
//     writes for that struct;
//   - the window is the canonical one, equal to a histogram built with
//     AddN from the same counts, and survives another round trip;
//   - decoding allocates nothing beyond what encoding/json spends on
//     the envelope and the window itself — never the dense array.
func FuzzHistJSON(f *testing.F) {
	dense := func(lo, hi time.Duration, counts []int64, under, over int64) []byte {
		b, err := json.Marshal(denseHist{lo, hi, counts, under, over})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	std := func(set map[int]int64, under, over int64) []byte {
		counts := make([]int64, DurationHistBins)
		for i, c := range set {
			counts[i] = c
		}
		return dense(DurationHistLo, DurationHistHi, counts, under, over)
	}
	f.Add(dense(DurationHistLo, DurationHistHi, []int64{}, 0, 0)) // empty counts
	f.Add(std(nil, 0, 0))                                         // 1000 zero bins
	f.Add(std(map[int]int64{0: 3}, 0, 0))
	f.Add(std(map[int]int64{999: 1}, 0, 0))
	f.Add(std(nil, 4, 9)) // under/over only
	f.Add(std(map[int]int64{60: 2, 61: 5, 200: 1, 201: 1}, 1, 1))
	f.Add(dense(0, time.Microsecond, []int64{7}, 1, 2)) // 1-bin geometry
	huge := make([]int64, 1<<13)
	huge[10], huge[8000] = 1, 2
	f.Add(dense(0, time.Hour, huge, 0, 0)) // huge counts array
	f.Add([]byte(`{"lo_ns":0,"hi_ns":10,"counts":null,"under":1}`))
	f.Add([]byte(` {"COUNTS": [ 0 , null, -0, 4 ] , "hi_ns":4, "extra":[1,{"a":"]"}]} `))
	f.Add([]byte(`{"counts":[1,-1]}`))
	f.Add([]byte(`{"counts":[1],"counts":[null]}`))
	f.Add([]byte(`{"counts":[1.0,1e3,"1",true,[1]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := new(Hist)
		if err := json.Unmarshal(data, h); err != nil {
			return
		}
		var d denseHist
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("Hist decodes what encoding/json rejects: %v", err)
		}
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-marshal differs from the dense form:\n got  %.300s\n want %.300s", got, want)
		}
		checkCanonical(t, h)
		if ref := histFromCounts(h); !reflect.DeepEqual(h, ref) {
			t.Fatalf("decoded layout (base %d, len %d) differs from AddN's (base %d, len %d)",
				h.base, len(h.win), ref.base, len(ref.win))
		}
		again := new(Hist)
		if err := json.Unmarshal(got, again); err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("round trip of the re-marshalled form differs (err %v)", err)
		}

		envelope := allocatedBytes(func() {
			var w histJSON
			if err := json.Unmarshal(data, &w); err != nil {
				t.Fatal(err)
			}
		})
		decode := allocatedBytes(func() {
			var g Hist
			if err := g.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		})
		// The window is one make of len(h.win) int64s, priced here the
		// same way (size-class rounding included); 16 B covers the tiny
		// allocator packing a small allocation into a fresh block.
		window := allocatedBytes(func() { histSink = make([]int64, len(h.win)) })
		if budget := envelope + window + 16; decode > budget {
			t.Fatalf("decode allocates %d B for a %d-bin window (envelope %d B, window %d B)",
				decode, len(h.win), envelope, window)
		}
	})
}

// TestHistJSONRejects pins the inputs the dense decoder accepted that
// no histogram can hold.
func TestHistJSONRejects(t *testing.T) {
	for _, in := range []string{
		`{"counts":[]}`,
		`{"counts":[1,-2]}`,
		`{"counts":[1],"counts":[2]}`,
		`{"counts":[1],"COUNTS":[2]}`,
		`{"counts":[9223372036854775808]}`,
		`{"counts":[1.5]}`,
		`{"counts":{"0":1}}`,
		`{"counts":["1"]}`,
	} {
		if err := json.Unmarshal([]byte(in), new(Hist)); err == nil {
			t.Errorf("%s decoded", in)
		}
	}
	if err := json.Unmarshal([]byte(`{"counts":[`+strings.Repeat("0,", 99)+`3]}`), new(Hist)); err != nil {
		t.Errorf("100-bin histogram rejected: %v", err)
	}
}
