package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
)

// fuzzSeedBatches are the structured seeds both fuzz targets start
// from: a plain batch, a sketch carrier, and an everything-set record —
// enough structure that the fuzzer's mutations reach deep decoder
// states instead of dying at the header.
func fuzzSeedBatches() [][]Summary {
	sk := agg.NewSketch(0)
	for i := 0; i < 100; i++ {
		sk.AddDuration(time.Duration(i) * time.Millisecond)
	}
	return [][]Summary{
		{{Device: "Google Nexus 5", Sent: 2, TimeMS: 1,
			RTTs: []int64{int64(30 * time.Millisecond), int64(31 * time.Millisecond)}}},
		{{Device: "HTC One", Sent: 100, Sketch: sk}},
		{{Device: "Sony Xperia J", Chipset: "BCM4330", Group: "g", Scenario: "s",
			TimeMS: 123, Sent: 3, Lost: 1, BackgroundSent: 2,
			EmulatedRTTNS: int64(30 * time.Millisecond), Inflation: 2.5,
			RTTs:     []int64{int64(40 * time.Millisecond)},
			LayersOK: true, UserOverheadNS: int64(2 * time.Millisecond),
			SDIOOverheadNS: int64(11 * time.Millisecond), PSMInflationNS: int64(5 * time.Millisecond),
			PSMActive: true, Calibrated: true}},
	}
}

// refDecodeBatch decodes a batch through encoding/json, exactly as
// DecodeBatch did before it had its own scanner. It is the
// differential oracle: DecodeBatch must accept exactly the batches it
// accepts and decode them to the same records.
func refDecodeBatch(r io.Reader, maxSummaries int) ([]Summary, error) {
	dec := json.NewDecoder(r)
	var out []Summary
	for {
		var s Summary
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out)+1, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out)+1, err)
		}
		out = append(out, s)
		if maxSummaries > 0 && len(out) > maxSummaries {
			return nil, fmt.Errorf("ingest: batch exceeds %d summaries", maxSummaries)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	return out, nil
}

// FuzzDecodeBatch hammers the JSON wire decoder with arbitrary bytes
// and checks it differentially against encoding/json: the same
// accept/reject decision and, on accept, deep-equal records. Whatever
// it accepts must also pass Validate and survive a canonical re-encode
// → re-decode round trip. The committed corpus carries the grammar
// corners (escapes, surrogates, invalid UTF-8, folded and duplicate
// keys, nulls, number forms, back-to-back records) and the hostile
// inputs (nesting past the depth limit, a 1 MiB skipped string, an
// over-cap rtts_ns array), so every plain go test run replays them.
func FuzzDecodeBatch(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, batch); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"device":"x","sent":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(bytes.NewReader(data), 1000)
		want, werr := refDecodeBatch(bytes.NewReader(data), 1000)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeBatch err = %v, encoding/json err = %v", err, werr)
		}
		if err != nil {
			return
		}
		for _, b := range [][]Summary{batch, want} {
			for i := range b {
				if len(b[i].RTTs) == 0 {
					b[i].RTTs = nil // a nil and an empty RTTs are equal
				}
			}
		}
		if !reflect.DeepEqual(batch, want) {
			t.Fatalf("DecodeBatch diverges from encoding/json:\n got  %+v\n want %+v", batch, want)
		}
		for i := range batch {
			if verr := batch[i].Validate(); verr != nil {
				t.Fatalf("accepted record %d fails Validate: %v", i, verr)
			}
		}
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, batch); err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if _, err := DecodeBatch(bytes.NewReader(buf.Bytes()), 0); err != nil {
			t.Fatalf("canonical re-encode does not re-decode: %v", err)
		}
	})
}

// hostileBinFrames builds the length-bomb frames the AM002
// decode-bounds review calls out: every uvarint a frame declares —
// record count, payload length, key length, RTT count, sketch length —
// set to an absurd value while the surrounding structure stays valid,
// so the decoder reaches each cap check and must reject before
// allocating. Kept as named seeds so the fuzz smoke run (and the
// regression test below) exercises every rejection path on every CI
// run, not only when the fuzzer rediscovers them.
func hostileBinFrames() map[string][]byte {
	hdr := []byte{'A', 'C', 'M', 'B', binWireVersion}
	maxUvarint := append(bytes.Repeat([]byte{0xff}, 9), 0x01) // 2^63-ish, valid encoding
	// emptyPrefix is a minimal payload up to the flag-gated tail: zero
	// flags patched in by callers, four empty keys, zero counters, and
	// an eight-byte zero inflation.
	emptyPrefix := func(flags byte) []byte {
		p := []byte{flags, 0, 0, 0, 0 /* keys */, 0 /* time */, 0, 0, 0 /* sent,lost,bg */, 0 /* emulated */}
		return append(p, make([]byte, 8)...) // inflation bits
	}
	frame := func(payload []byte) []byte {
		out := append([]byte{}, hdr...)
		out = append(out, 1) // one summary
		out = binary.AppendUvarint(out, uint64(len(payload)))
		return append(out, payload...)
	}
	return map[string][]byte{
		// Count says 2^63 summaries; no payload follows.
		"count-bomb": append(append([]byte{}, hdr...), maxUvarint...),
		// Payload length far over MaxBinarySummaryBytes.
		"paylen-bomb": append(append(append([]byte{}, hdr...), 1), maxUvarint...),
		// Device-key length bomb inside a tiny declared payload.
		"keylen-bomb": frame(append([]byte{0}, maxUvarint...)),
		// RTT count bomb after an otherwise-valid fixed section.
		"rttcount-bomb": frame(append(emptyPrefix(flagRTTs), maxUvarint...)),
		// Sketch length bomb after an otherwise-valid fixed section.
		"sketchlen-bomb": frame(append(emptyPrefix(flagSketch), maxUvarint...)),
	}
}

// TestHostileBinaryFramesRejected pins the cap checks: every length
// bomb is an error, never an allocation the attacker sized.
func TestHostileBinaryFramesRejected(t *testing.T) {
	for name, data := range hostileBinFrames() {
		if _, err := DecodeBinaryBatch(bytes.NewReader(data), 1000, int64(len(data))+1); err == nil {
			t.Errorf("%s: decoder accepted a length-bomb frame", name)
		}
	}
}

// FuzzDecodeBinaryBatch hammers the hand-rolled binary decoder — the
// untrusted-input surface this PR adds. Beyond no-panic, it checks the
// bounds discipline's visible contract: anything accepted validates and
// round-trips through the encoder byte-compatibly (decode → encode →
// decode gives the same records).
func FuzzDecodeBinaryBatch(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		frame, err := AppendBinaryBatch(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// A truncated and a bit-flipped variant seed the rejection paths.
		f.Add(frame[:len(frame)/2])
		flipped := append([]byte{}, frame...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	for _, frame := range hostileBinFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBinaryBatch(bytes.NewReader(data), 1000, int64(len(data))+1)
		if err != nil {
			return
		}
		for i := range batch {
			if verr := batch[i].Validate(); verr != nil {
				t.Fatalf("accepted record %d fails Validate: %v", i, verr)
			}
		}
		again, err := AppendBinaryBatch(nil, batch)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		batch2, err := DecodeBinaryBatch(bytes.NewReader(again), 1000, 0)
		if err != nil {
			t.Fatalf("re-encoded batch does not re-decode: %v", err)
		}
		if len(batch2) != len(batch) {
			t.Fatalf("round trip changed record count: %d → %d", len(batch), len(batch2))
		}
	})
}
