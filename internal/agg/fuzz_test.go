package agg

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"
)

// fuzzSeedSketchBlobs are the structured seeds FuzzSketchBatchFold
// starts from: canonical encodings at several compressions plus the
// centroid-count length bomb, so the cap-rejection path runs on every
// smoke run instead of waiting for the fuzzer to rediscover it.
func fuzzSeedSketchBlobs(f *testing.F) [][]byte {
	var blobs [][]byte
	for _, comp := range []float64{0, MinSketchCompression, MaxSketchCompression} {
		sk := NewSketch(comp)
		for i := 0; i < 500; i++ {
			sk.AddDuration(time.Duration(i%37) * time.Millisecond)
		}
		blobs = append(blobs, sk.AppendBinary(nil))
	}
	blobs = append(blobs, NewSketch(0).AppendBinary(nil))
	// Length bomb: a well-formed header whose centroid count claims
	// 2^62 entries. UnmarshalBinary must reject it at the cap check,
	// before allocating.
	bomb := []byte{sketchBinaryVersion}
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(DefaultSketchCompression))
	bomb = binary.AppendUvarint(bomb, 100)                             // count
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(1)) // min
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(2)) // max
	bomb = binary.AppendUvarint(bomb, 1<<62)                           // centroid count
	if err := new(Sketch).UnmarshalBinary(bomb); err == nil {
		f.Fatal("length-bomb seed unexpectedly decodes")
	}
	return append(blobs, bomb)
}

// FuzzSketchBatchFold hammers the wire-facing sketch gauntlet
// (UnmarshalBinary + Valid, exactly what the ingest decoders run) with
// arbitrary blobs, then pushes every accepted sketch through the batch
// entry points the fold path uses. It must never panic, hostile blobs
// must still be rejected at the same caps with buffered inserts in
// play, and on accepted sketches:
//
//   - AddMulti must leave the sketch byte-identical to per-observation
//     Add — buffer contents, flush boundaries, centroids, everything —
//     since the sharding-equivalence contract is built on it;
//   - the folded and merged sketches must still pass Valid (the
//     centroid cap holds under batched compression), also when the
//     merge receiver still buffers observations, whose buffer must
//     stay below its limit;
//   - the canonical binary form must round-trip byte-identically;
//   - Hist.AddMulti and Moments.AddMulti over the same run must match
//     their serial folds exactly.
func FuzzSketchBatchFold(f *testing.F) {
	for _, blob := range fuzzSeedSketchBlobs(f) {
		f.Add(blob, uint16(96))
	}
	f.Fuzz(func(t *testing.T, data []byte, runLen uint16) {
		var wire Sketch
		if err := wire.UnmarshalBinary(data); err != nil {
			return // rejected before allocation; nothing to fold
		}
		if err := wire.Valid(); err != nil {
			return // parseable but hostile: the server drops it here
		}

		// A deterministic finite observation run long enough to cross
		// flush boundaries at the default compression's bufLimit.
		vs := make([]float64, int(runLen%1200)+1)
		for i := range vs {
			vs[i] = float64(data[i%len(data)])*1e5 + float64(i)
		}

		batched, serial := wire.Clone(), wire.Clone()
		batched.AddMulti(vs)
		for _, v := range vs {
			serial.Add(v)
		}
		if !reflect.DeepEqual(batched, serial) {
			t.Fatalf("AddMulti diverged from serial Add after %d observations", len(vs))
		}
		batched.Flush()
		if err := batched.Valid(); err != nil {
			t.Fatalf("accepted sketch invalid after batched fold: %v", err)
		}

		merged := NewSketch(wire.Compression)
		merged.AddMulti(vs)
		merged.Merge(&wire)
		if err := merged.Valid(); err != nil {
			t.Fatalf("merge of accepted sketch breaks validity: %v", err)
		}

		// Into a default-compression receiver that still buffers
		// observations: the wire sketch's singletons join that buffer
		// (a coarser wire compression also lowers the receiver's
		// limit), which must stay below its limit with the count
		// identity intact, on both merge entry points.
		for _, shift := range []bool{false, true} {
			recv := NewSketch(0)
			recv.AddMulti(vs[:min(len(vs), recv.bufLimit()-1)])
			if shift {
				recv.MergeShifted(&wire, -1e6, 0)
			} else {
				recv.Merge(&wire)
			}
			if err := recv.Valid(); err != nil {
				t.Fatalf("merge into a buffering receiver (shift=%v) breaks validity: %v", shift, err)
			}
			if n, limit := len(recv.buf), recv.bufLimit(); n >= limit {
				t.Fatalf("merge into a buffering receiver (shift=%v) left %d buffered, limit %d", shift, n, limit)
			}
		}

		enc := wire.AppendBinary(nil)
		var back Sketch
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("canonical re-encode does not re-decode: %v", err)
		}
		if !bytes.Equal(enc, back.AppendBinary(nil)) {
			t.Fatal("canonical binary form is not a fixed point")
		}

		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v)
		}
		hb, hs := NewDurationHist(), NewDurationHist()
		hb.AddMulti(ds)
		for _, d := range ds {
			hs.Add(d)
		}
		if !reflect.DeepEqual(hb, hs) {
			t.Fatal("Hist.AddMulti diverged from serial Add")
		}
		var mb, ms Moments
		mb.AddMulti(vs)
		for _, v := range vs {
			ms.Add(v)
		}
		if mb != ms {
			t.Fatalf("Moments.AddMulti diverged from serial Add: %+v vs %+v", mb, ms)
		}
	})
}
