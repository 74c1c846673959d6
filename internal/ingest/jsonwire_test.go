package ingest

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDecodeBatchSkipAllocsBounded pins that skipping an unknown field
// costs no allocations however large the skipped value is: a long
// string, a long array, deep nesting, and a wide object each decode
// with the same fixed allocation count at small and at large size. It
// drives the record parser on an already-read body, so the body buffer
// (which scales with the request by design) is out of the count.
func TestDecodeBatchSkipAllocsBounded(t *testing.T) {
	skipped := map[string]func(n int) string{
		"string": func(n int) string { return `"` + strings.Repeat(`a\né`, n) + `"` },
		"array":  func(n int) string { return "[" + strings.Repeat(`1.5e3,"x",null,`, n) + "true]" },
		"nested": func(n int) string {
			n = min(n, maxJSONDepth-1)
			return strings.Repeat(`[{"k":`, n/2) + "0" + strings.Repeat(`}]`, n/2)
		},
		"object": func(n int) string { return "{" + strings.Repeat(`"k":{"v":[]},`, n) + `"z":0}` },
	}
	for name, gen := range skipped {
		var counts []float64
		for _, n := range []int{4, 1 << 16} {
			rec := []byte(`{"device":"x","sent":1,"rtts_ns":[5],"extra":` + gen(n) + "}")
			d := &jsonDecoder{buf: rec, al: &decodeAlloc{intern: map[string]string{}}}
			counts = append(counts, testing.AllocsPerRun(20, func() {
				d.off = 0
				var s Summary
				if err := d.summary(&s); err != nil {
					t.Fatalf("%s/%d: %v", name, n, err)
				}
			}))
		}
		if counts[0] > 1 || counts[1] > counts[0] {
			t.Errorf("%s: skipping allocates %v (small, large), want a fixed count ≤ 1", name, counts)
		}
	}
}

// TestDecodeBatchNoAliasing pins that decoded summaries share no memory
// with the caller's input or the decoder's pooled buffers: overwriting
// the input and decoding another batch through the same pools leave a
// returned batch unchanged.
func TestDecodeBatchNoAliasing(t *testing.T) {
	input := []byte(`{"device":"Nexus é\t5","chipset":"BCM4339","group":"g1","scenario":"s","sent":3,"rtts_ns":[1,2,3]}
{"device":"HTC One","group":"caf\u00e9","sent":2,"rtts_ns":[40,50],"sketch":null}
`)
	got, err := DecodeBatch(bytes.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDecodeBatch(bytes.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] = 'X'
	}
	other := []byte(`{"device":"Zzzzz è\t9","chipset":"ZZZZZZZ","group":"zz","scenario":"z","sent":3,"rtts_ns":[9,9,9]}
{"device":"Zzz Zzz","group":"zzz\u00e8","sent":2,"rtts_ns":[99,99]}
`)
	for i := 0; i < 4; i++ {
		if _, err := DecodeBatch(bytes.NewReader(other), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded batch changed after its input and the pools were reused:\n got  %+v\n want %+v", got, want)
	}
}

// TestIngestOversizedJSONBatch pins the 413 path: the JSON decoder reads
// the whole body first, and the cap's *http.MaxBytesError must still
// reach the handler as "split and re-post", not as a bad batch.
func TestIngestOversizedJSONBatch(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, MaxBatchBytes: 1 << 10})
	var body bytes.Buffer
	if err := EncodeBatch(&body, benchBatch(20, 20)); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(s.URL()+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON batch: status %d, want 413", resp.StatusCode)
	}
	if got := s.metrics.OversizedBatches.Load(); got != 1 {
		t.Fatalf("oversized_batches = %d, want 1", got)
	}
}
