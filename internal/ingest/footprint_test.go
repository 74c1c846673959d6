package ingest

import (
	"runtime"
	"testing"
	"time"
)

// fleetCellFootprint folds n fleet-shaped summaries (at least enough to
// give every one of their 2048 keys a cell) into a fresh store, in
// chunks so the input never outweighs the store, and returns the live
// heap the store holds per resident cell, measured after a full GC on
// each side so only reachable bytes count.
func fleetCellFootprint(tb testing.TB, n int) float64 {
	const chunk = 30_000
	gen := newFleetShapedGen()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewStore(0, 0)
	for left := n; left > 0; left -= chunk {
		sums := gen.next(min(left, chunk))
		for i := range sums {
			if !st.Fold(&sums[i], 2*time.Millisecond, SourceLearned) {
				tb.Fatal("fold dropped")
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st.Cells() != 2048 {
		tb.Fatalf("%d cells, want 2048", st.Cells())
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(st)
	runtime.KeepAlive(gen) // its key strings are shared with the cells
	return float64(live) / float64(st.Cells())
}

// Fleet footprint inputs: enough draws to hit all 2048 keys (~15
// summaries per cell), and one reference phase's worth of traffic
// (~300 per cell), by which every cell's sketch buffers have filled.
const (
	fleetFootprintFirst  = 30_000
	fleetFootprintSteady = 300 * 2048
)

// TestFleetCellFootprint bounds what one fleet-shaped cell costs in
// live heap: its windowed histograms, sketches and moments. The
// budget is what lets DefaultMaxCells cells fit the memory its comment
// promises.
func TestFleetCellFootprint(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("live-heap sizes under -race do not describe production")
	}
	const budget = 20 << 10
	per := fleetCellFootprint(t, fleetFootprintFirst)
	t.Logf("%.0f B live heap per fleet-shaped cell", per)
	if per > budget {
		t.Fatalf("%.0f B per fleet-shaped cell, budget %d", per, budget)
	}
}

// TestFleetCellFootprintSteady is the same bound once the cells have
// seen steady traffic: each sketch's fold buffer has reached its full
// capacity, which the first-fill measurement above stops short of.
func TestFleetCellFootprintSteady(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("live-heap sizes under -race do not describe production")
	}
	const budget = 14 << 10
	per := fleetCellFootprint(t, fleetFootprintSteady)
	t.Logf("%.0f B live heap per fleet-shaped cell after %d summaries", per, fleetFootprintSteady)
	if per > budget {
		t.Fatalf("%.0f B per steady fleet-shaped cell, budget %d", per, budget)
	}
}

// BenchmarkCellFootprint reports the live heap per fleet-shaped cell
// after the first fill (B/cell) and at steady state (steady-B/cell);
// ns/op is the time to mint and fill the 2048 cells both ways.
func BenchmarkCellFootprint(b *testing.B) {
	var first, steady float64
	for i := 0; i < b.N; i++ {
		first = fleetCellFootprint(b, fleetFootprintFirst)
		steady = fleetCellFootprint(b, fleetFootprintSteady)
	}
	b.ReportMetric(first, "B/cell")
	b.ReportMetric(steady, "steady-B/cell")
}
