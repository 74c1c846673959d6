package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

// The traced mode replays a workload's seeded batches in-process
// through the public functions of internal/ingest, internal/puncture
// and internal/cluster (internal/agg is reached through the store's
// fold), with a span around each call. Spans are recorded by the
// benchmark around the calls; nothing inside the program is traced.

// span is one timed call. Spans of one batch share a trace id; parent
// is the index of the enclosing span, or -1.
type span struct {
	name   string
	trace  int64
	parent int32
	start  int64 // ns since the tracer's origin
	end    int64
}

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, trace int64, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, trace: trace, parent: parent, start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.origin)) }

// selfTimes sums, per span name, each span's duration minus the time
// its children cover, and counts the spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range t.spans {
		covered := coveredBy(t.spans, children[i], s.start, s.end)
		self[s.name] += time.Duration(s.end - s.start - covered)
		count[s.name]++
	}
	return self, count
}

// coveredBy is the length of [lo, hi) covered by the union of the
// given spans.
func coveredBy(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	first := true
	for _, v := range iv {
		if first || v[0] > curB {
			if !first {
				total += curB - curA
			}
			curA, curB, first = v[0], v[1], false
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if !first {
		total += curB - curA
	}
	return total
}

// write dumps the spans as CSV (name,trace,id,parent,start_ns,end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,trace,id,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.trace, i, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceResult holds the per-layer numbers of one traced replay.
type traceResult struct {
	metrics map[string]float64
	spans   int
	spanNS  float64 // cost of one empty begin/end pair
}

// replayBatches is how many batches the traced replay folds: one
// second of the reference rate, cycling the pool.
func replayBatches(w *workload) int { return int(w.refRate / batchSize) }

// traceReplay replays the workload's warm-up and one second of its
// reference-rate batches through the program's public functions.
func traceReplay(w *workload, p *pool, spanPath string) (*traceResult, error) {
	// Both encodings of every batch are made before timing.
	batches := p.warmBatches()
	warm := len(batches)
	for i := 0; i < replayBatches(w); i++ {
		batches = append(batches, p.run[i%len(p.run)])
	}
	bins := make([][]byte, len(batches))
	jsons := make([][]byte, len(batches))
	for i, b := range batches {
		bins[i] = encodeWire(wireTCP, b.sums)
		jsons[i] = encodeWire(wireJSON, b.sums)
	}

	st := ingest.NewStore(time.Duration(windowMS)*time.Millisecond, 0)
	punc := ingest.NewPuncturerStore(nil)
	resolved0 := punc.Store().ResolvedBySource()
	minted := map[ingest.Key]bool{}

	deltaEvery := max(1, int(w.refRate*streamInterval.Seconds()/batchSize))
	gossipEvery := max(1, int(w.refRate*gossipInterval.Seconds()/batchSize))
	var streamCursor, gossipCursor int64
	var deltaCells, gossipCells, gossipBytes, corrections, summaries, wireBytes int

	tr := newTracer()
	for i := range batches {
		trace := int64(i)
		root := tr.begin("batch", trace, -1)
		s := tr.begin("ingest.decode_json", trace, root)
		if _, err := ingest.DecodeBatch(bytes.NewReader(jsons[i]), 0); err != nil {
			return nil, err
		}
		tr.end(s)
		s = tr.begin("ingest.decode_bin", trace, root)
		sums, err := ingest.DecodeBinaryBatch(bytes.NewReader(bins[i]), 0, 0)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		for j := range sums {
			sm := &sums[j]
			// On a summary that ships its own attribution,
			// Puncturer.Correction reads nothing from the knowledge
			// store: it records the attribution there
			// (Store.RecordAttribution) and counts the summary, so its
			// span is the recording cost. On a blind summary it
			// resolves the correction down the ladder.
			name := "puncture.correction"
			if sm.LayersOK {
				name = "puncture.record"
			}
			s = tr.begin(name, trace, root)
			corr, src := punc.Correction(sm)
			tr.end(s)
			corrections++
			name = "ingest.fold_update"
			if k := st.KeyFor(sm); !minted[k] {
				minted[k] = true
				name = "ingest.fold_mint"
			}
			s = tr.begin(name, trace, root)
			ok := st.Fold(sm, corr, src)
			tr.end(s)
			if !ok {
				return nil, fmt.Errorf("traced fold dropped a summary for %s", sm.Device)
			}
		}
		tr.end(root)
		summaries += len(sums)
		if w.wire == wireJSON {
			wireBytes += len(jsons[i])
		} else {
			wireBytes += len(bins[i])
		}

		if i < warm {
			continue
		}
		if n := i - warm + 1; n%deltaEvery == 0 {
			s = tr.begin("ingest.deltas", int64(-n), -1)
			ev, err := st.DeltasSince(streamCursor, ingest.RollupCell)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			streamCursor = ev.Epoch
			deltaCells += len(ev.Cells)
		}
		if n := i - warm + 1; n%gossipEvery == 0 {
			enc := tr.begin("cluster.delta_encode", int64(-n), -1)
			cd := st.CellDeltasSince(gossipCursor)
			frame, err := cluster.AppendDelta(nil, &cluster.Delta{
				NodeID: "trace", BootID: "trace", Epoch: cd.Epoch, Reset: cd.Reset,
				Cells: cd.Cells, Removed: cd.Removed,
			})
			tr.end(enc)
			if err != nil {
				return nil, err
			}
			dec := tr.begin("cluster.delta_decode", int64(-n), -1)
			_, err = cluster.DecodeDelta(frame)
			tr.end(dec)
			if err != nil {
				return nil, err
			}
			gossipCursor = cd.Epoch
			gossipCells += len(cd.Cells)
			gossipBytes += len(frame)
		}
	}
	s := tr.begin("ingest.snapshot", -1, -1)
	st.Snapshot()
	tr.end(s)
	s = tr.begin("ingest.statsquery", -1, -1)
	rows, err := st.StatsQuery(w.statsRollup)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	self, count := tr.selfTimes()
	per := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(self[name].Nanoseconds()) / float64(n)
	}
	msPer := func(name string) float64 { return per(name, count[name]) / 1e6 }
	m := map[string]float64{
		"ingest.decode_bin_ns":    per("ingest.decode_bin", summaries),
		"ingest.decode_json_ns":   per("ingest.decode_json", summaries),
		"ingest.wire_bytes":       float64(wireBytes) / float64(summaries),
		"puncture.correction_ns":  per("puncture.correction", count["puncture.correction"]),
		"puncture.record_ns":      per("puncture.record", count["puncture.record"]),
		"ingest.fold_update_ns":   per("ingest.fold_update", count["ingest.fold_update"]),
		"ingest.fold_mint_ns":     per("ingest.fold_mint", count["ingest.fold_mint"]),
		"ingest.cells":            float64(st.Cells()),
		"ingest.snapshot_ms":      msPer("ingest.snapshot"),
		"ingest.statsquery_ms":    msPer("ingest.statsquery"),
		"ingest.query_rows":       float64(len(rows)),
		"ingest.deltas_ms":        msPer("ingest.deltas"),
		"ingest.delta_cells":      float64(deltaCells) / float64(max(count["ingest.deltas"], 1)),
		"cluster.delta_encode_ms": msPer("cluster.delta_encode"),
		"cluster.delta_decode_ms": msPer("cluster.delta_decode"),
		"cluster.delta_bytes":     float64(gossipBytes) / float64(max(count["cluster.delta_encode"], 1)),
		"cluster.delta_cells":     float64(gossipCells) / float64(max(count["cluster.delta_encode"], 1)),
	}
	resolved1 := punc.Store().ResolvedBySource()
	for src := puncture.Source(0); src < puncture.Source(numRungs); src++ {
		name := src.String()
		m["puncture.rung_frac."+rungNames[src]] = float64(resolved1[name]-resolved0[name]) / float64(corrections)
	}

	allocs, err := allocPasses(batches[warm:], bins[warm:], jsons[warm:], batches[:warm])
	if err != nil {
		return nil, err
	}
	for k, v := range allocs {
		m[k] = v
	}
	if spanPath != "" {
		if err := tr.write(spanPath); err != nil {
			return nil, err
		}
	}
	return &traceResult{metrics: m, spans: len(tr.spans), spanNS: spanCost()}, nil
}

// allocPasses counts heap allocations per summary of the decoders and
// of Store.Fold into existing cells, each in a pass with no other
// calls between the two memory-statistics reads.
func allocPasses(run []*batch, bins, jsons [][]byte, warm []*batch) (map[string]float64, error) {
	var summaries int
	for _, b := range run {
		summaries += len(b.sums)
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	out := map[string]float64{}

	a0 := mallocs()
	for _, b := range bins {
		if _, err := ingest.DecodeBinaryBatch(bytes.NewReader(b), 0, 0); err != nil {
			return nil, err
		}
	}
	out["ingest.decode_bin_allocs"] = float64(mallocs()-a0) / float64(summaries)

	a0 = mallocs()
	for _, b := range jsons {
		if _, err := ingest.DecodeBatch(bytes.NewReader(b), 0); err != nil {
			return nil, err
		}
	}
	out["ingest.decode_json_allocs"] = float64(mallocs()-a0) / float64(summaries)

	// Fold into cells the warm-up already minted; corrections come
	// from the real puncturer but are resolved before the pass.
	st := ingest.NewStore(time.Duration(windowMS)*time.Millisecond, 0)
	punc := ingest.NewPuncturerStore(nil)
	for _, b := range warm {
		for j := range b.sums {
			corr, src := punc.Correction(&b.sums[j])
			st.Fold(&b.sums[j], corr, src)
		}
	}
	type job struct {
		s    *ingest.Summary
		corr time.Duration
		src  ingest.CorrectionSource
	}
	jobs := make([]job, 0, summaries)
	for _, b := range run {
		for j := range b.sums {
			corr, src := punc.Correction(&b.sums[j])
			jobs = append(jobs, job{&b.sums[j], corr, src})
		}
	}
	a0 = mallocs()
	for _, j := range jobs {
		st.Fold(j.s, j.corr, j.src)
	}
	out["ingest.fold_allocs"] = float64(mallocs()-a0) / float64(summaries)
	return out, nil
}

// spanCost measures one empty begin/end pair: the tracing overhead
// each span adds to the time it encloses.
func spanCost() float64 {
	t := newTracer()
	const n = 100000
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
