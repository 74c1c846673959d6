package ingest

import (
	"runtime"
	"testing"
	"time"
)

// fleetCellFootprint folds fleet-shaped summaries into a fresh store
// until every one of their 2048 keys holds a cell, and returns the live
// heap the store holds per resident cell, measured after a full GC on
// each side so only reachable bytes count.
func fleetCellFootprint(tb testing.TB) float64 {
	sums := fleetShapedSummaries(30_000) // enough draws to hit all 2048 keys
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewStore(0, 0)
	for i := range sums {
		if !st.Fold(&sums[i], 2*time.Millisecond, SourceLearned) {
			tb.Fatal("fold dropped")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st.Cells() != 2048 {
		tb.Fatalf("%d cells, want 2048", st.Cells())
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(st)
	runtime.KeepAlive(sums)
	return float64(live) / float64(st.Cells())
}

// TestFleetCellFootprint bounds what one fleet-shaped cell costs in
// live heap: its windowed histograms, sketches and moments. The
// budget is what lets DefaultMaxCells cells fit the memory its comment
// promises.
func TestFleetCellFootprint(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("live-heap sizes under -race do not describe production")
	}
	const budget = 20 << 10
	per := fleetCellFootprint(t)
	t.Logf("%.0f B live heap per fleet-shaped cell", per)
	if per > budget {
		t.Fatalf("%.0f B per fleet-shaped cell, budget %d", per, budget)
	}
}

// BenchmarkCellFootprint reports the live heap per fleet-shaped cell
// (B/cell); ns/op is the time to mint and fill the 2048 cells.
func BenchmarkCellFootprint(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per = fleetCellFootprint(b)
	}
	b.ReportMetric(per, "B/cell")
}
