package main

import (
	"math"
	"time"

	"repro/internal/ingest"
)

// Fixed benchmark configuration. BENCHMARK.json holds only the
// workload and metric names, so the rates, ladders, limits and daemon
// flags live here; every run prints them in its stamp.

const (
	// batchSize is the summaries per batch on every wire.
	batchSize = 100
	// windowMS is the daemon's default aggregation window (-window 1m).
	// All event times fall inside one window, so the resident cell
	// count equals the workload's key count.
	windowMS = int64(time.Minute / time.Millisecond)
	// gossipInterval is how often the traced replay encodes and decodes
	// one cluster delta: a gossip round of a peer pulling every 200 ms.
	gossipInterval = 200 * time.Millisecond
	// streamInterval is the daemon's default /v1/stream coalescing
	// interval; the traced mode's DeltasSince calls cover one interval
	// of folds each.
	streamInterval = 100 * time.Millisecond
	// tcpWindow caps unacknowledged frames on the raw-TCP connection,
	// like a device-side send window: a server stall fills it and then
	// holds the sender back, so the stall shows as generator lateness.
	tcpWindow = 64
	// acceptLimitMS is the sustained_sps latency limit: a ladder rung
	// passes only if its accept p99 stays within it.
	acceptLimitMS = 100.0
	// ladderDivisor sets a ladder rung's measured length: the run's
	// --seconds divided by it (plus an untimed quarter of that as lead).
	ladderDivisor = 30
	// maxFoldLag is the largest fold backlog a passing ladder rung may
	// leave, as a share of the rung's duration.
	maxFoldLag = 0.05
	// maxSteal is the share of CPU time the hypervisor may take from
	// this machine during the reference phase, or a failed ladder
	// attempt, before it is measured once more (within the run's spare
	// time, half of --seconds).
	maxSteal = 0.05
	// coarseStep is the climb's coarse stride in rungs;
	// staircaseTrials is the length of the up-down staircase that
	// follows it.
	coarseStep      = 8
	staircaseTrials = 14
	// setupRepeats is how many times a run launches and warms the
	// daemon, half before the measured phases and half after them, so
	// the median (setup_s) spans the whole run's host conditions.
	setupRepeats = 31
	// drainTimeout bounds how long a phase waits for its backlog.
	drainTimeout = 30 * time.Second
)

// Wires.
const (
	wireTCP  = "tcp"  // binary frames pipelined on one raw-TCP connection
	wireJSON = "json" // JSON lines POSTed over HTTP
)

// Readers: the workload's second connection.
const (
	readerPoll   = "poll"   // GET /stats?by=device at a fixed rate
	readerStream = "stream" // one /v1/stream?by=cell subscriber
)

// workload is one traffic mix.
type workload struct {
	name   string
	wire   string
	reader string
	// pollHz is the /stats poll rate (readerPoll only).
	pollHz float64
	// readTailQ is the percentile read_tail_ms reports: the highest
	// with at least ten samples beyond it at the reference phase's
	// sample count.
	readTailQ float64
	// Key space: fleet-shaped workloads cross models with cohorts and
	// draw each summary's key uniformly; hot uses the five-model census
	// with about 20 same-cell summaries per model per batch.
	hot     bool
	models  int
	cohorts int
	// rttMix is the share of summaries in each RTT-count class (see
	// rttClasses); it must sum to 1.
	rttMix [numRTTClasses]float64
	// runBatches is the size of the pre-encoded pool the timed phases
	// cycle through.
	runBatches int
	// refRate is the reference offered rate (summaries/s) at which the
	// latency metrics are taken.
	refRate float64
	// ladder is the offered-rate ladder (summaries/s) sustained_sps
	// climbs; adjacent rungs differ by less than a tenth.
	ladder []float64
	// statsRollup is the rollup the traced StatsQuery runs at.
	statsRollup ingest.Rollup
}

// RTT-count classes of a summary.
const (
	rtt1 = iota
	rtt20
	rtt200
	rttSketch
	numRTTClasses
)

var rttClassNames = [numRTTClasses]string{"1", "20", "200", "sketch"}

// geometric builds a ladder of n rungs from lo, each ratio× the last,
// rounded to 500 summaries/s.
func geometric(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = math.Round(r/500) * 500
		r *= ratio
	}
	return out
}

var workloads = []*workload{
	{
		name:        "fleet-tcp",
		wire:        wireTCP,
		reader:      readerPoll,
		pollHz:      4,
		readTailQ:   0.8,
		models:      256,
		cohorts:     8,
		rttMix:      [numRTTClasses]float64{rtt1: 0.10, rtt20: 0.75, rtt200: 0.05, rttSketch: 0.10},
		runBatches:  256,
		refRate:     40000,
		ladder:      geometric(40000, 1.06, 40),
		statsRollup: ingest.RollupDevice,
	},
	{
		name:        "hot-json",
		wire:        wireJSON,
		reader:      readerStream,
		readTailQ:   0.99,
		hot:         true,
		rttMix:      [numRTTClasses]float64{rtt20: 1},
		runBatches:  64,
		refRate:     30000,
		ladder:      geometric(20000, 1.06, 40),
		statsRollup: ingest.RollupCell,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
