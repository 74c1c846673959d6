package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a: union 10..50
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the parent: 90..100 counts
		{name: "d", parent: 2, start: 25, end: 35},
	}}
	self, count := tr.selfTimes()
	want := map[string]time.Duration{"root": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, self[name], w)
		}
		if count[name] != 1 {
			t.Errorf("count(%s) = %d", name, count[name])
		}
	}
}

// The traced replay yields every per-layer metric it owns; the rest
// come from the live run.
func TestTraceReplayEmitsLayerMetrics(t *testing.T) {
	w := workloadByName("hot-json")
	p := buildPool(w, 1, time.Now().UnixMilli()/windowMS*windowMS)
	res, err := traceReplay(w, p, "")
	if err != nil {
		t.Fatal(err)
	}
	live := liveCounters(w, &liveResult{refResult: refResult{ref: &rung{}}})
	for _, m := range perLayer {
		_, traced := res.metrics[m.name]
		_, fromLive := live[m.name]
		if traced == fromLive {
			t.Errorf("per-layer metric %s: traced=%v live=%v, want exactly one source", m.name, traced, fromLive)
		}
	}
	for _, name := range []string{"ingest.decode_bin_ns", "ingest.decode_json_ns", "ingest.fold_update_ns", "puncture.correction_ns", "puncture.record_ns", "cluster.delta_encode_ms"} {
		if res.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.metrics[name])
		}
	}
	if got := res.metrics["ingest.cells"]; got != float64(len(p.keys)) {
		t.Errorf("ingest.cells = %v, want %d", got, len(p.keys))
	}
	if got := res.metrics["puncture.rung_frac.reported"] + res.metrics["puncture.rung_frac.model"]; got < 0.999 {
		t.Errorf("hot-json rung shares reported+model = %v, want 1", got)
	}
}
