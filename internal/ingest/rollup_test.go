package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
)

// serialRollup is the reference the parallel rollup merge is checked
// against: the single-goroutine merge of every stored cell plus the
// extras, one accumulator per reduced key.
func serialRollup(t *testing.T, st *Store, r Rollup, extra []*Cell) []*Cell {
	t.Helper()
	merged := map[Key]*Cell{}
	for _, c := range append(st.Snapshot(), extra...) {
		k := r.reduce(c.Key)
		dst, ok := merged[k]
		if !ok {
			dst = newCell(k)
			merged[k] = dst
		}
		if err := dst.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*Cell, 0, len(merged))
	for _, c := range merged {
		out = append(out, c)
	}
	sortCells(out)
	return out
}

// cellsAgree reports how got differs from want under the merge laws:
// counters and histogram buckets exact, moments within 1e-9 relative
// (merge order differs), sketch quantiles within the two sketches'
// combined documented rank-error bound. Empty means they agree.
func cellsAgree(got, want *Cell) []string {
	var diffs []string
	add := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	if got.Key != want.Key {
		add("key %+v != %+v", got.Key, want.Key)
		return diffs
	}
	counters := func(c *Cell) [11]int64 {
		return [11]int64{c.Sessions, c.ProbesSent, c.ProbesLost, c.BackgroundSent,
			c.PSMActiveSessions, c.CalibratedSessions, c.ReportedSessions, c.LearnedSessions,
			c.FamilySessions, c.GlobalSessions, c.UncorrectedSessions}
	}
	if counters(got) != counters(want) {
		add("counters %v != %v", counters(got), counters(want))
	}
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	moments := []struct {
		name      string
		got, want agg.Moments
	}{
		{"raw", got.Raw, want.Raw}, {"punctured", got.Punctured, want.Punctured},
		{"correction", got.Correction, want.Correction}, {"inflation", got.Inflation, want.Inflation},
		{"user", got.UserOverhead, want.UserOverhead}, {"sdio", got.SDIOOverhead, want.SDIOOverhead},
		{"psm", got.PSMInflation, want.PSMInflation},
	}
	for _, m := range moments {
		if m.got.N != m.want.N || m.got.MinV != m.want.MinV || m.got.MaxV != m.want.MaxV {
			add("%s moments n/min/max (%d,%v,%v) != (%d,%v,%v)", m.name,
				m.got.N, m.got.MinV, m.got.MaxV, m.want.N, m.want.MinV, m.want.MaxV)
		}
		if rel(m.got.Mean, m.want.Mean) > 1e-9 || rel(m.got.M2, m.want.M2) > 1e-9 {
			add("%s moments mean/m2 (%v,%v) != (%v,%v)", m.name, m.got.Mean, m.got.M2, m.want.Mean, m.want.M2)
		}
	}
	hists := []struct {
		name      string
		got, want *agg.Hist
	}{{"raw", got.RawHist, want.RawHist}, {"punctured", got.PuncturedHist, want.PuncturedHist}}
	for _, h := range hists {
		if h.got.Under != h.want.Under || h.got.Over != h.want.Over {
			add("%s hist under/over (%d,%d) != (%d,%d)", h.name, h.got.Under, h.got.Over, h.want.Under, h.want.Over)
		}
		if h.got.Bins() != h.want.Bins() {
			add("%s hist bins %d != %d", h.name, h.got.Bins(), h.want.Bins())
		}
		for b := 0; b < h.want.Bins(); b++ {
			if h.got.Count(b) != h.want.Count(b) {
				add("%s hist bucket %d: %d != %d", h.name, b, h.got.Count(b), h.want.Count(b))
				break
			}
		}
	}
	sketches := []struct {
		name      string
		got, want *agg.Sketch
	}{{"raw", got.RawSketch, want.RawSketch}, {"punctured", got.PuncturedSketch, want.PuncturedSketch}}
	for _, s := range sketches {
		if (s.got == nil) != (s.want == nil) {
			add("%s sketch present %t != %t", s.name, s.got != nil, s.want != nil)
			continue
		}
		if s.got == nil {
			continue
		}
		if s.got.Count != s.want.Count || s.got.MinV != s.want.MinV || s.got.MaxV != s.want.MaxV {
			add("%s sketch count/min/max (%d,%v,%v) != (%d,%v,%v)", s.name,
				s.got.Count, s.got.MinV, s.got.MaxV, s.want.Count, s.want.MinV, s.want.MaxV)
			continue
		}
		if s.got.Count == 0 {
			continue
		}
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			eps := s.got.QuantileErrorBound(q) + s.want.QuantileErrorBound(q)
			lo, hi := s.want.Quantile(q-eps), s.want.Quantile(q+eps)
			v := s.got.Quantile(q)
			slack := 1e-9*math.Abs(hi) + 1 // float interpolation slop, ns scale
			if v < lo-slack || v > hi+slack {
				add("%s sketch p%g %v outside [%v,%v]", s.name, q*100, v, lo, hi)
			}
		}
	}
	return diffs
}

// rollupFixture builds a store whose cells sit in both tiers — fine
// windows, plus rollup cells from cap eviction and compaction — and a
// replica cell set whose keys partly overlap the store's.
func rollupFixture(rng *rand.Rand) (*Store, []*Cell) {
	st := NewStore(time.Second, []int{1, 4, 32}[rng.Intn(3)])
	st.EnableCompaction(time.Duration(1+rng.Intn(3)) * time.Second)
	st.SetMaxCells(int64(8 + rng.Intn(24)))
	peer := NewStore(time.Second, 4)
	for i, n := 0, 200+rng.Intn(400); i < n; i++ {
		s := randomSummary(rng)
		s.TimeMS = int64(rng.Intn(8)) * 1000
		corr := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		src := CorrectionSource(rng.Intn(5))
		if rng.Intn(3) == 0 {
			peer.Fold(&s, corr, src)
		} else {
			st.Fold(&s, corr, src)
		}
	}
	st.Compact(int64(2+rng.Intn(4)) * 1000)
	extra := peer.Snapshot()
	for _, c := range extra {
		// Replica cells arrive wire-decoded: flushed, never buffered.
		c.RawSketch.Flush()
		c.PuncturedSketch.Flush()
	}
	return st, extra
}

// TestRollupMatchesSerialMerge: the parallel rollup merge — direct and
// through Query/QueryWith, at every rollup, with one worker and with
// four — agrees with a serial reference merge of the same cells.
func TestRollupMatchesSerialMerge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		st, extra := rollupFixture(rng)
		if st.RollupCells() == 0 {
			t.Fatalf("trial %d: fixture has no rollup-tier cells", trial)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, r := range []Rollup{RollupCell, RollupGroup, RollupDevice, RollupWindow} {
				for _, ex := range [][]*Cell{nil, extra} {
					want := serialRollup(t, st, r, ex)
					got, err := st.rollup(r, ex)
					if err != nil {
						t.Fatal(err)
					}
					if r != RollupCell {
						viaAPI, err := st.QueryWith(r, ex)
						if err != nil {
							t.Fatal(err)
						}
						if len(viaAPI) != len(got) {
							t.Fatalf("QueryWith returned %d rows, rollup %d", len(viaAPI), len(got))
						}
					}
					if len(got) != len(want) {
						t.Fatalf("trial %d procs %d %s extras=%d: %d rows, want %d",
							trial, procs, r, len(ex), len(got), len(want))
					}
					for i := range want {
						if d := cellsAgree(got[i], want[i]); len(d) > 0 {
							t.Fatalf("trial %d procs %d %s extras=%d row %+v: %v",
								trial, procs, r, len(ex), want[i].Key, d)
						}
					}
				}
			}
		}
	}
}

func sumSessions(cells []*Cell) int64 {
	var n int64
	for _, c := range cells {
		n += c.Sessions
	}
	return n
}

// TestRollupConcurrentWithRetention runs Query and QueryWith while
// folds mint past the cell cap (fold-time eviction), and a janitor
// compacts, enforces the cap and prunes. Run under -race. Once the
// workload quiesces, every rollup must account for exactly the sessions
// folded. Prune is lossy by design, so its cutoff trails compaction:
// it races the other paths without ever finding a cell to delete.
func TestRollupConcurrentWithRetention(t *testing.T) {
	st := NewStore(time.Second, 8)
	st.EnableCompaction(2 * time.Second)
	st.SetMaxCells(40)
	peer := NewStore(0, 0)
	for i := 0; i < 50; i++ {
		foldOne(t, peer, deviceName("peer", i%7), "g", 0, int64(10+i)*int64(time.Millisecond))
	}
	extra := peer.Snapshot()
	extraSessions := sumSessions(extra)

	const folders, perFolder, perWindow = 4, 1500, 60
	var heads [folders]atomic.Int64
	var folded atomic.Int64
	done := make(chan struct{})
	var work, bg sync.WaitGroup
	for f := 0; f < folders; f++ {
		work.Add(1)
		go func(f int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			for i := 0; i < perFolder; i++ {
				w := int64(i / perWindow)
				if i%perWindow == 0 {
					heads[f].Store(w) // published before any fold into w
					// Let the janitor and readers interleave with
					// every window, however fast the folds run.
					time.Sleep(time.Millisecond)
				}
				s := Summary{
					Device: deviceName("dev", rng.Intn(16)), Group: fmt.Sprintf("g%d", rng.Intn(4)),
					Sent: 1, TimeMS: w * 1000, RTTs: []int64{int64(time.Millisecond) * (1 + rng.Int63n(80))},
				}
				if st.Fold(&s, time.Millisecond, SourceLearned) {
					folded.Add(1)
				}
			}
		}(f)
	}
	bg.Add(1)
	go func() { // janitor
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			oldest := heads[0].Load()
			for f := 1; f < folders; f++ {
				if h := heads[f].Load(); h < oldest {
					oldest = h
				}
			}
			// Every window below oldest is closed to every folder.
			cutoff := oldest * 1000
			st.Compact(cutoff)
			st.EnforceCap(cutoff)
			st.Prune(cutoff)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for q := 0; q < 2; q++ {
		bg.Add(1)
		go func(q int) { // readers
			defer bg.Done()
			rollups := []Rollup{RollupGroup, RollupDevice, RollupWindow, RollupCell}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r := rollups[(i+q)%len(rollups)]
				var err error
				if i%2 == 0 {
					_, err = st.Query(r)
				} else {
					_, err = st.QueryWith(r, extra)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(q)
	}
	work.Wait()
	close(done)
	bg.Wait()

	if got := st.Dropped() + folded.Load(); got != folders*perFolder {
		t.Fatalf("folded %d + dropped %d != %d attempted", folded.Load(), st.Dropped(), folders*perFolder)
	}
	if st.Evicted() == 0 || st.Compacted() == 0 {
		t.Fatalf("workload never exercised eviction (%d) or compaction (%d)", st.Evicted(), st.Compacted())
	}
	for _, r := range []Rollup{RollupGroup, RollupDevice, RollupWindow} {
		local, err := st.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumSessions(local); got != folded.Load() {
			t.Errorf("%s: %d sessions served, %d folded", r, got, folded.Load())
		}
		fleet, err := st.QueryWith(r, extra)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumSessions(fleet); got != folded.Load()+extraSessions {
			t.Errorf("%s with extras: %d sessions served, want %d", r, got, folded.Load()+extraSessions)
		}
	}
}

// TestConcurrentMintsAtCapEvictWithoutDrops: several goroutines mint
// new-window keys into a full store whose older-window cells are
// spread over many stripes, so almost every mint needs a global
// eviction and concurrent minters race for the same coldest victim.
// There are exactly as many new keys as older cells, so no mint may
// drop, and every session must survive through the rollups.
func TestConcurrentMintsAtCapEvictWithoutDrops(t *testing.T) {
	const minters, keysEach, rounds = 8, 8, 25
	st := NewStore(time.Second, 128)
	st.EnableCompaction(time.Second)
	st.SetMaxCells(minters * keysEach)
	var folded atomic.Int64
	for w := int64(0); w < rounds; w++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for m := 0; m < minters; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				<-start
				for k := 0; k < keysEach; k++ {
					s := Summary{Device: deviceName("d", m*keysEach+k), Group: "g", Sent: 1,
						TimeMS: w * 1000, RTTs: []int64{int64(5 * time.Millisecond)}}
					if st.Fold(&s, 0, SourceNone) {
						folded.Add(1)
					}
				}
			}(m)
		}
		close(start)
		wg.Wait()
		if d := st.Dropped(); d != 0 {
			t.Fatalf("window %d: %d summaries dropped with older-window cells resident", w, d)
		}
	}
	cells, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sumSessions(cells), folded.Load(); got != want || want != minters*keysEach*rounds {
		t.Fatalf("%d sessions served, %d folded, %d posted", got, want, minters*keysEach*rounds)
	}
}

// foldSketchClone is the clone-based foldSketch the clone-free one
// replaced, kept as its byte-identity reference: a flushed clone of
// the posted sketch feeds the raw track, and a shifted, clamped second
// clone feeds the punctured track.
func foldSketchClone(c *Cell, sk *agg.Sketch, corr time.Duration) {
	c.RawSketch.Merge(sk)
	flat := sk.Clone()
	flat.Flush()
	for _, ct := range flat.Centroids {
		c.Raw.AddN(ct.Mean, ct.Weight)
		c.RawHist.AddN(time.Duration(ct.Mean), ct.Weight)
	}
	if sk.MinV < c.Raw.MinV {
		c.Raw.MinV = sk.MinV
	}
	if sk.MaxV > c.Raw.MaxV {
		c.Raw.MaxV = sk.MaxV
	}
	shifted := flat.Clone()
	clamp := func(v float64) float64 {
		if v += -float64(corr); v < 0 {
			return 0
		}
		return v
	}
	for i := range shifted.Centroids {
		shifted.Centroids[i].Mean = clamp(shifted.Centroids[i].Mean)
	}
	shifted.MinV, shifted.MaxV = clamp(shifted.MinV), clamp(shifted.MaxV)
	c.PuncturedSketch.Merge(shifted)
	for _, ct := range shifted.Centroids {
		c.Punctured.AddN(ct.Mean, ct.Weight)
		c.PuncturedHist.AddN(time.Duration(ct.Mean), ct.Weight)
	}
	if shifted.MinV < c.Punctured.MinV {
		c.Punctured.MinV = shifted.MinV
	}
	if shifted.MaxV > c.Punctured.MaxV {
		c.Punctured.MaxV = shifted.MaxV
	}
}

// TestFoldSketchMatchesCloneReference: folding a device-posted sketch
// without cloning leaves the cell byte-identical to the clone-based
// fold, and never mutates the posted sketch — for buffered and flushed
// sketches, out-of-range compressions, corrections that clamp part or
// all of the distribution at zero, and cells with prior state.
func TestFoldSketchMatchesCloneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		base := newCell(Key{Device: "d"})
		for i, n := 0, rng.Intn(3); i < n; i++ {
			s := randomSummary(rng)
			base.fold(&s, time.Duration(rng.Int63n(int64(5*time.Millisecond))), SourceLearned)
		}
		sk := agg.NewSketch([]float64{0, 20, 150, 5000}[rng.Intn(4)])
		for i, n := 0, 1+rng.Intn(3000); i < n; i++ {
			sk.Add(float64(rng.Int63n(int64(400 * time.Millisecond))))
		}
		if rng.Intn(2) == 0 {
			sk.Flush()
		}
		corr := time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
		before, _ := json.Marshal(sk.Clone())

		got, want := base.clone(), base.clone()
		got.foldSketch(sk, corr)
		foldSketchClone(want, sk, corr)
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("trial %d: clone-free fold diverges from the clone reference\n got %s\nwant %s", trial, gb, wb)
		}
		if after, _ := json.Marshal(sk.Clone()); string(after) != string(before) {
			t.Fatalf("trial %d: foldSketch mutated the posted sketch", trial)
		}
	}
}
