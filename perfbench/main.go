package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprint(fs.Output(), usage) }
	root := fs.String("root", ".", "checkout root (holds go.mod and cmd/acutemon-ingestd)")
	name := fs.String("workload", "", "workload: fleet-tcp or hot-json")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced mode: per-layer metrics instead of end-to-end")
	compare := fs.Bool("compare", false, "compare two saved result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench -compare OLD.json NEW.json")
			return 2
		}
		a, err := loadRecord(fs.Arg(0))
		if err == nil {
			var b *record
			if b, err = loadRecord(fs.Arg(1)); err == nil {
				compareRecords(stdout, a, b)
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if err := bench(w, *root, *seed, *seconds, *trace == 1, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(w *workload, root string, seed int64, seconds int, traced bool, stdout io.Writer) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "acutemon-ingestd")); err != nil {
		return fmt.Errorf("%s is not a checkout of this repository: %w", root, err)
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(out, "logs"), 0o755); err != nil {
		return err
	}
	bin := filepath.Join(out, "acutemon-ingestd")
	if err := buildDaemon(root, bin); err != nil {
		return err
	}
	// Leave headroom under the 180 s a run may take; an interrupt
	// cancels the run, and the deferred teardown stops the daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	now := time.Now().UnixMilli()
	p := buildPool(w, seed, now-now%windowMS)
	lr := newLiveRun(w, p, bin, filepath.Join(out, "logs"))

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v: %d keys, %d warm-up + %d pooled batches of %d\n",
		w.name, seed, seconds, traced, len(p.keys), len(p.warmBatches()), len(p.run), batchSize)

	var tres *traceResult
	if traced {
		tres, err = traceReplay(w, p, filepath.Join(out, "spans-"+w.name+".csv"))
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
	}
	setups := setupRepeats
	if traced {
		setups = 1
	}
	lres, err := runLive(ctx, lr, seconds, setups, !traced, traced)
	if err != nil {
		return err
	}
	st := hostStamp(w, root, seed, seconds, traced, lr.args)

	res := result{Attempted: lres.attempted, Failed: lres.failed, Metrics: map[string]measure{}}
	problems := append([]string(nil), lres.errs...)
	problems = append(problems, lres.gate.problems...)
	for k, why := range lres.gate.mismatched {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf("cell %s/%s: %s", p.keys[k].device, p.keys[k].group, why))
		}
	}
	live := liveCounters(w, lres)
	if live["server.cells_dropped"] != 0 || live["server.stream_dropped"] != 0 {
		problems = append(problems, fmt.Sprintf("server dropped %v summaries at the cell cap and %v stream subscribers",
			live["server.cells_dropped"], live["server.stream_dropped"]))
	}
	if lres.readFail > 0 {
		problems = append(problems, fmt.Sprintf("%d reader operations failed or never became visible", lres.readFail))
	}

	report(stdout, w, st, lres, tres, live)
	if traced {
		for _, m := range perLayer {
			v, ok := tres.metrics[m.name]
			if !ok {
				v, ok = live[m.name]
			}
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = measure{Value: v, Unit: m.unit}
		}
	} else {
		e2e := endToEnd(w, lres)
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = measure{Value: e2e[m.name], Unit: m.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s has no samples", name))
			res.Metrics[name] = measure{Value: 0, Unit: m.Unit}
		}
	}
	res.Correct = lres.failed == 0 && len(problems) == 0
	for _, pr := range problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", pr)
	}
	fmt.Fprintf(stdout, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)

	// Save this result and flag a stamp difference from the previous
	// one of the same workload and mode.
	recPath := filepath.Join(out, fmt.Sprintf("result-%s-trace%d.json", w.name, boolInt(traced)))
	rec := &record{Stamp: st, Correct: res.Correct, Metrics: res.Metrics}
	if prev, err := loadRecord(recPath); err == nil {
		if diff := stampDiff(prev.Stamp, st); len(diff) > 0 {
			fmt.Fprintf(stdout, "WARNING: stamp differs from the previous %s result; do not compare them: %s\n",
				w.name, strings.Join(diff, "; "))
		} else {
			fmt.Fprintf(stdout, "stamp matches the previous %s result (source %s, seed %d)\n", w.name, prev.Stamp.Source, prev.Stamp.Seed)
		}
	}
	if err := saveRecord(recPath, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

type metricDef struct{ name, unit string }

// endToEndMetrics are printed with --trace 0, on every workload.
var endToEndMetrics = []metricDef{
	{"sustained_sps", "summaries/s"},
	{"accept_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"server_rss_mb", "MiB"},
	{"setup_s", "s"},
}

func endToEnd(w *workload, l *liveResult) map[string]float64 {
	return map[string]float64{
		"sustained_sps": l.sustained,
		"accept_p50_ms": l.ref.accept.q(0.5),
		"read_p50_ms":   l.read.q(0.5),
		"read_tail_ms":  l.read.q(w.readTailQ),
		"server_rss_mb": l.rss,
		"setup_s":       median(durationsSeconds(l.setups)),
	}
}

// acceptP99 is the median over the reference phase's one-second
// windows of each window's p99: a disturbance confined to a few
// seconds does not move it.
func acceptP99(w *workload, ref *rung) (float64, int) {
	return segmentQ(ref.acceptSeq, 0.99, int(w.refRate/batchSize))
}

// perLayer are printed with --trace 1, on every workload.
var perLayer = []metricDef{
	{"ingest.decode_bin_ns", "ns"},
	{"ingest.decode_bin_allocs", "count"},
	{"ingest.decode_json_ns", "ns"},
	{"ingest.decode_json_allocs", "count"},
	{"ingest.wire_bytes", "bytes"},
	{"puncture.correction_ns", "ns"},
	{"puncture.record_ns", "ns"},
	{"puncture.rung_frac.reported", "fraction"},
	{"puncture.rung_frac.model", "fraction"},
	{"puncture.rung_frac.family", "fraction"},
	{"puncture.rung_frac.global", "fraction"},
	{"puncture.rung_frac.none", "fraction"},
	{"ingest.fold_update_ns", "ns"},
	{"ingest.fold_allocs", "count"},
	{"ingest.fold_mint_ns", "ns"},
	{"ingest.cells", "count"},
	{"ingest.snapshot_ms", "ms"},
	{"ingest.statsquery_ms", "ms"},
	{"ingest.query_rows", "count"},
	{"ingest.deltas_ms", "ms"},
	{"ingest.delta_cells", "count"},
	{"cluster.delta_encode_ms", "ms"},
	{"cluster.delta_decode_ms", "ms"},
	{"cluster.delta_bytes", "bytes"},
	{"cluster.delta_cells", "count"},
	{"server.accept_p99_ms", "ms"},
	{"server.fold_busy_frac", "fraction"},
	{"server.fold_job_us", "us"},
	{"server.rejected_batches", "count"},
	{"server.queue_len_max", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_frac", "fraction"},
}

// liveCounters derives the server and generator per-layer numbers from
// the /metrics scrapes bracketing the reference phase.
func liveCounters(w *workload, l *liveResult) map[string]float64 {
	a, b := l.c0, l.c1
	wall := b.at.Sub(a.at).Seconds()
	foldNS := delta(a, b, "acutemon_fold_ns_sum")
	foldJobs := delta(a, b, "acutemon_fold_ns_count")
	workers := float64(daemonGOMAXPROCS())
	p99, _ := acceptP99(w, l.ref)
	return map[string]float64{
		"server.accept_p99_ms":    p99,
		"server.fold_busy_frac":   foldNS / 1e9 / (wall * workers),
		"server.fold_job_us":      foldNS / 1e3 / math.Max(foldJobs, 1),
		"server.rejected_batches": delta(a, b, "acutemon_rejected_batches_total"),
		"server.queue_len_max":    float64(l.queueMax),
		"server.cells_dropped":    b.metrics["acutemon_dropped_summaries_total"],
		"server.stream_dropped":   b.metrics["acutemon_stream_dropped_total"],
		"gen.late_p99_ms":         l.ref.late.q(0.99),
		"gen.cpu_frac":            l.ref.cpuFrac,
	}
}

// report prints the human-readable result: stamp, mix, ladder table,
// end-to-end metrics with sample counts, and per-layer numbers.
func report(out io.Writer, w *workload, st stamp, l *liveResult, t *traceResult, live map[string]float64) {
	sj, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp: %s\n", sj)
	fmt.Fprintf(out, "mix (accepted summaries): rtts")
	for i, s := range l.rttShares {
		fmt.Fprintf(out, " %s=%.4f", rttClassNames[i], s)
	}
	fmt.Fprintf(out, "; rung served")
	for i, s := range l.gate.rungShares {
		fmt.Fprintf(out, " %s=%.4f", rungNames[i], s)
	}
	fmt.Fprintf(out, "; rung expected")
	for i, s := range l.rungSent {
		fmt.Fprintf(out, " %s=%.4f", rungNames[i], s)
	}
	fmt.Fprintln(out)
	if len(l.ladder) > 0 {
		fmt.Fprintf(out, "throughput-latency (limit: accept p99 <= %.0f ms, no growing backlog, fold lag <= %.0f%% of the rung):\n", acceptLimitMS, 100*maxFoldLag)
		fmt.Fprintf(out, "  %12s %9s %9s %7s %7s %11s %6s %s\n", "offered/s", "p50_ms", "p99_ms", "n", "growing", "fold_lag_ms", "steal", "pass")
		for _, r := range l.ladder {
			pass := fmt.Sprint(r.pass)
			if r.retried {
				pass = "not counted (host steal)"
			}
			fmt.Fprintf(out, "  %12.0f %9.3f %9.3f %7d %7v %11.1f %6.3f %s\n", r.rate, r.accept.q(0.5), r.accept.q(0.99), len(r.accept), r.growing, r.foldLagMS, r.steal, pass)
		}
		fmt.Fprintf(out, "sustained_sps = %.0f summaries/s\n", l.sustained)
	}
	readName := map[string]string{readerPoll: "query", readerStream: "visible"}[w.reader]
	segP99, segs := acceptP99(w, l.ref)
	fmt.Fprintf(out, "reference rate %.0f summaries/s for %v: accept p50 %.3f ms (n=%d); p99 %.3f ms as the median of %d one-second windows' p99 (%d batches each), %.3f ms over the whole phase (%d beyond)\n",
		w.refRate, l.ref.wall.Round(time.Millisecond), l.ref.accept.q(0.5), len(l.ref.accept),
		segP99, segs, len(l.ref.accept)/max(segs, 1), l.ref.accept.q(0.99), l.ref.accept.beyond(0.99))
	fmt.Fprintf(out, "reader (read_* = %s latency): p50 %.3f ms, tail p%g %.3f ms (n=%d, %d beyond), p99 %.3f ms\n",
		readName, l.read.q(0.5), 100*w.readTailQ, l.read.q(w.readTailQ), len(l.read), l.read.beyond(w.readTailQ), l.read.q(0.99))
	for _, rep := range l.repeated {
		fmt.Fprintf(out, "measured again: %s\n", rep)
	}
	fmt.Fprintf(out, "setup_s samples, in order: %v; server_rss_mb %.1f\n", durationsSeconds(l.setups), l.rss)
	fmt.Fprintf(out, "generator: late p99 %.3f ms, cpu %.3f of one core (GOMAXPROCS %d); host steal %.4f of CPU time\n",
		l.ref.late.q(0.99), l.ref.cpuFrac, runtime.GOMAXPROCS(0), l.stealFrac)
	fmt.Fprintln(out, "live server counters over the reference phase (server.fold_* time the pipelines' FoldRun; traced ingest.fold_* time serial Store.Fold):")
	for _, m := range perLayer {
		if v, ok := live[m.name]; ok {
			fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(out, "  %-28s %14.0f count\n  %-28s %14.0f count\n", "server.cells_dropped", live["server.cells_dropped"], "server.stream_dropped", live["server.stream_dropped"])
	if t != nil {
		fmt.Fprintf(out, "traced replay: %d spans, %.0f ns per span of tracing overhead:\n", t.spans, t.spanNS)
		for _, m := range perLayer {
			if v, ok := t.metrics[m.name]; ok {
				fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, v, m.unit)
			}
		}
	}
}

const usage = `perfbench: the acutemon-ingestd benchmark.

Usage (from the root of a checkout):

	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
	bash perfbench/run.sh -compare OLD.json NEW.json

Workloads: fleet-tcp, hot-json. See doc.go for every
metric, workload and the layer-to-end-to-end mapping. The last line of
output is the JSON result; each run also saves it, with its host
stamp, under .bench_build/perfbench/.
`
