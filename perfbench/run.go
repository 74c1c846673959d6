package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// liveRun drives one workload's daemon from this process.
type liveRun struct {
	w      *workload
	p      *pool
	bin    string
	logDir string

	d    *daemon
	args []string
	snd  sender
	// admin carries set-up, scrapes and checks, outside the timed
	// phases; the timed traffic uses only snd and the reader.
	admin *http.Client

	cursor    int
	acc       []tally // per key, accepted
	accBatch  map[*batch]int
	accRungs  [numRungs]int64
	accRTTs   [numRTTClasses]int64
	attempted int
	failed    int
	errs      []string

	vis  *visTracker
	poll *poller
	// spare is the time left for measuring phases again because of
	// host steal; it bounds how long a run can take.
	spare time.Duration
}

func newLiveRun(w *workload, p *pool, bin, logDir string) *liveRun {
	return &liveRun{
		w: w, p: p, bin: bin, logDir: logDir,
		admin:    &http.Client{Timeout: 30 * time.Second},
		acc:      make([]tally, len(p.keys)),
		accBatch: map[*batch]int{},
	}
}

// account records a finished phase: accepted batches join the tally
// the correctness gate checks.
func (r *liveRun) account(ops []*op) {
	for _, o := range ops {
		r.attempted++
		if o.done.IsZero() {
			r.failed++
			if o.err != nil && len(r.errs) < 5 {
				r.errs = append(r.errs, o.err.Error())
			}
			continue
		}
		r.accBatch[o.b]++
		for i, k := range o.b.keys {
			r.acc[k].add(o.b.tallys[i])
		}
		for i, n := range o.b.rungs {
			r.accRungs[i] += int64(n)
		}
		for i, n := range o.b.rtts {
			r.accRTTs[i] += int64(n)
		}
	}
}

func (r *liveRun) acceptedSummaries() int64 {
	var n int64
	for _, t := range r.acc {
		n += t.sessions
	}
	return n
}

// setup launches the daemon, waits for /healthz, dials the ingest
// connection and sends the warm-up pass. The returned duration is one
// setup_s sample.
func (r *liveRun) setup(ctx context.Context, n int) (time.Duration, error) {
	args, addr, tcpAddr, err := daemonArgs(r.w)
	if err != nil {
		return 0, err
	}
	r.args = args
	r.acc = make([]tally, len(r.p.keys))
	r.accBatch = map[*batch]int{}
	r.accRungs, r.accRTTs = [numRungs]int64{}, [numRTTClasses]int64{}
	r.attempted, r.failed, r.errs = 0, 0, nil
	r.cursor = 0

	t0 := time.Now()
	r.d, err = startDaemon(r.bin, args, addr, tcpAddr,
		filepath.Join(r.logDir, fmt.Sprintf("%s-%d.log", r.w.name, n)))
	if err != nil {
		return 0, err
	}
	if err := r.d.waitReady(ctx, r.admin); err != nil {
		return 0, err
	}
	if r.w.wire == wireTCP {
		t, err := dialTCP(r.d.tcpAddr)
		if err != nil {
			return 0, err
		}
		r.snd = t
	} else {
		r.snd = newHTTPSender(r.d.url)
	}
	// Each warm-up phase is acknowledged and folded before the next:
	// the uncorrected phase must fold before anything teaches the
	// knowledge store.
	for _, phase := range r.p.warm {
		now := time.Now()
		ops := make([]*op, len(phase))
		for i, b := range phase {
			ops[i] = &op{b: b, due: now}
		}
		if err := r.snd.send(ctx, ops, time.Millisecond, nil); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
		r.account(ops)
		if err := r.waitFolded(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// waitFolded waits until the daemon has folded every accepted summary.
func (r *liveRun) waitFolded(ctx context.Context) error {
	want := float64(r.acceptedSummaries())
	deadline := time.Now().Add(drainTimeout)
	for {
		m, err := scrape(ctx, r.admin, r.d.url)
		if err != nil {
			return err
		}
		got := m["acutemon_folded_summaries_total"] + m["acutemon_dropped_summaries_total"]
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fold stage stalled: %v of %v summaries folded", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// teardown stops the daemon and closes the connections.
func (r *liveRun) teardown() error {
	if r.snd != nil {
		r.snd.close()
		r.snd = nil
	}
	var err error
	if r.d != nil {
		err = r.d.stop()
		r.d = nil
	}
	r.admin.CloseIdleConnections()
	return err
}

// startReader opens the workload's second connection: the dashboard
// poll, or the stream subscriber.
func (r *liveRun) startReader(ctx context.Context, wg *sync.WaitGroup) error {
	switch r.w.reader {
	case readerPoll:
		r.poll = &poller{client: oneConnClient(), url: r.d.url + "/stats?by=device", hz: r.w.pollHz}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.poll.run(ctx)
		}()
	case readerStream:
		r.vis = newVisTracker(r.p)
		for _, b := range r.p.warmBatches() {
			r.vis.add(b)
		}
		return r.subscribe(ctx, wg)
	}
	return nil
}

// subscribe opens a /v1/stream?by=cell subscription for the tracker.
// Its first event is a full snapshot, so a new subscription catches up
// on everything folded while none was open.
func (r *liveRun) subscribe(ctx context.Context, wg *sync.WaitGroup) error {
	ready := make(chan error, 1)
	url := r.d.url + "/v1/stream?by=cell"
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.vis.run(ctx, oneConnClient(), url, ready)
	}()
	return <-ready
}

// rung is one offered rate's open-loop phase.
type rung struct {
	rate   float64
	accept dist
	// acceptSeq holds the accept latencies in schedule order.
	acceptSeq []float64
	late      dist
	failed    int
	growing   bool
	pass      bool
	cpuFrac   float64
	wall      time.Duration
	// foldLagMS is the fold backlog left at the end of a ladder rung.
	foldLagMS float64
	// steal is the share of CPU time the hypervisor took during the
	// phase.
	steal float64
	// retried marks a failed ladder attempt that was not counted
	// because of host steal.
	retried bool
}

// runPhase sends one open-loop phase at rate for lead+dur. Batches due
// in the untimed lead are sent but not measured: they absorb the
// transient of a step up in rate.
func (r *liveRun) runPhase(ctx context.Context, rate float64, lead, dur time.Duration, onSend func(*op)) (*rung, error) {
	t0 := time.Now().Add(2 * time.Millisecond)
	ops, interval := makeOps(r.p, &r.cursor, rate, lead+dur, t0)
	cpu0, steal0 := cpuTime(), stealTicks()
	err := r.snd.send(ctx, ops, interval, onSend)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	r.account(ops)
	ph := &rung{rate: rate, wall: wall, cpuFrac: cpu.Seconds() / wall.Seconds(), steal: stealShare(steal0, wall)}
	measured := ops[:0:0]
	for _, o := range ops {
		if o.due.Before(t0.Add(lead)) {
			continue
		}
		measured = append(measured, o)
	}
	var acc, late []float64
	for _, o := range measured {
		if o.done.IsZero() {
			ph.failed++
			continue
		}
		acc = append(acc, o.acceptMS())
		late = append(late, o.lateMS())
	}
	ph.accept, ph.late, ph.acceptSeq = newDist(acc), newDist(late), acc
	ph.growing = backlogGrows(measured)
	ph.pass = ph.failed == 0 && !ph.growing && ph.accept.q(0.99) <= acceptLimitMS
	return ph, err
}

// foldLagMS is the daemon's fold backlog, in milliseconds of the
// offered rate: summaries accepted but not yet folded. The server
// queue hides a fold stage that cannot keep up until it fills, so a
// rung must also end with this backlog small.
func (r *liveRun) foldLagMS(ctx context.Context, rate float64) (float64, error) {
	m, err := scrape(ctx, r.admin, r.d.url)
	if err != nil {
		return 0, err
	}
	lag := m["acutemon_accepted_summaries_total"] - m["acutemon_folded_summaries_total"]
	return 1000 * lag / rate, nil
}

// backlogGrows reports whether the backlog (batches due but not yet
// acknowledged) kept growing through the phase. A batch's accept
// latency is the backlog, in time, it found when due; so a growing
// backlog shows as batches due in the last quarter waiting clearly
// longer, by median, than those due in the first. Medians keep one
// pause from reading as growth. Batches never accepted count as
// waiting forever.
func backlogGrows(ops []*op) bool {
	if len(ops) < 8 {
		return false
	}
	quarter := func(part []*op) float64 {
		lat := make([]float64, len(part))
		for i, o := range part {
			lat[i] = math.Inf(1)
			if !o.done.IsZero() {
				lat[i] = o.acceptMS()
			}
		}
		return newDist(lat).q(0.5)
	}
	n := len(ops) / 4
	return quarter(ops[len(ops)-n:]) > 2*quarter(ops[:n])+5
}

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks reads the host's cumulative steal time from /proc/stat
// (0 where unavailable).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// climb finds sustained_sps in two stages. A coarse walk climbs
// coarseStep rungs at a time from the bottom while rungs pass; a
// failure not far past the limit (median within three limits) is run up
// to twice more, so one disturbance does not end the walk. Then an
// up-down staircase of staircaseTrials attempts starts half a coarse
// step above the highest coarse pass and moves one rung up after a pass
// and one down after a failure, so it oscillates around the rate the
// daemon passes half the time. sustained_sps is the rung at the mean of
// the rungs it attempted from its first reversal on, rounded down: on a
// sharp knee, where it alternates between the highest passing rung and
// the one above, that is the highest passing rung. A failed
// attempt not far past the limit, during which the hypervisor took more
// than maxSteal of the CPU, is not counted but run again while the
// run's spare time lasts. Each attempt starts once the previous one's
// batches are folded.
func (r *liveRun) climb(ctx context.Context, dur time.Duration) (float64, []*rung, error) {
	ladder := r.w.ladder
	var tested []*rung
	farPast := func(ph *rung) bool { return ph.accept.q(0.5) > 3*acceptLimitMS }
	attempt := func(i int) (*rung, error) {
		for {
			ph, err := r.runPhase(ctx, ladder[i], dur/4, dur, r.ladderSend())
			if err == nil {
				ph.foldLagMS, err = r.foldLagMS(ctx, ladder[i])
			}
			if err == nil {
				err = r.quiesce(ctx, false)
			}
			if err != nil {
				return nil, err
			}
			ph.pass = ph.pass && ph.foldLagMS <= maxFoldLag*float64(dur/time.Millisecond)
			tested = append(tested, ph)
			if ph.pass || ph.steal <= maxSteal || farPast(ph) || !r.spend(dur+dur/4) {
				return ph, nil
			}
			ph.retried = true
		}
	}

	best, err := searchLadder(len(ladder), func(i int) (bool, bool, error) {
		ph, err := attempt(i)
		if err != nil {
			return false, false, err
		}
		return ph.pass, farPast(ph), nil
	})
	if err != nil {
		return 0, tested, err
	}
	if best < 0 {
		return 0, tested, fmt.Errorf("the lowest rung (%.0f summaries/s) already misses the limit", ladder[0])
	}
	return ladder[best], tested, nil
}

// searchLadder runs climb's coarse walk and staircase over a ladder of
// n rungs and returns the index of the sustained rung, or -1 when the
// lowest rung never passes. attempt runs rung i once and reports
// whether it passed and whether it failed far past the limit.
func searchLadder(n int, attempt func(i int) (pass, farPast bool, err error)) (int, error) {
	best := -1
	for i := 0; i < n; i += coarseStep {
		passed := false
		for try := 0; try < 3 && !passed; try++ {
			pass, far, err := attempt(i)
			if err != nil {
				return -1, err
			}
			passed = pass
			if far {
				break
			}
		}
		if !passed {
			break
		}
		best = i
	}
	if best < 0 {
		return -1, nil
	}

	i := min(best+coarseStep/2, n-1)
	var rungs []int
	reversal := -1
	prev := 0
	for t := 0; t < staircaseTrials; t++ {
		pass, _, err := attempt(i)
		if err != nil {
			return -1, err
		}
		rungs = append(rungs, i)
		step := -1
		if pass {
			step = 1
		}
		if reversal < 0 && prev != 0 && step != prev {
			reversal = t
		}
		prev = step
		i = max(0, min(n-1, i+step))
	}
	last := rungs[len(rungs)-1]
	switch {
	case reversal < 0 && prev > 0:
		// It never turned: every attempt passed, up to the top.
		return last, nil
	case reversal < 0:
		// Every attempt failed, walking down.
		return max(last-1, 0), nil
	}
	rungs = rungs[reversal:]
	sum := 0
	for _, i := range rungs {
		sum += i
	}
	return sum / len(rungs), nil
}

// ladderSend keeps the stream tracker's per-key send counts current
// for batches that are not timed.
func (r *liveRun) ladderSend() func(*op) {
	if r.vis == nil {
		return nil
	}
	return func(o *op) { r.vis.add(o.b) }
}

// counters are the daemon's /metrics values bracketing the reference
// phase.
type counters struct {
	at      time.Time
	metrics map[string]float64
}

func (r *liveRun) snapshot(ctx context.Context) (counters, error) {
	at := time.Now()
	m, err := scrape(ctx, r.admin, r.d.url)
	return counters{at: at, metrics: m}, err
}

// delta is end−start for a /metrics series.
func delta(a, b counters, name string) float64 {
	return b.metrics[name] - a.metrics[name]
}

// queueSampler samples /healthz queue_len on its own connection. It is
// used only in the trace mode's live run, whose end-to-end numbers are
// never reported.
type queueSampler struct {
	max int64
}

func (q *queueSampler) run(ctx context.Context, url string) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	for ctx.Err() == nil {
		var h struct {
			QueueLen int64 `json:"queue_len"`
		}
		if getJSON(ctx, c, url+"/healthz", &h) == nil && h.QueueLen > q.max {
			q.max = h.QueueLen
		}
		sleepUntil(ctx, time.Now().Add(20*time.Millisecond))
	}
}

// statsCells fetches /stats?by=cell and returns its cells decoded
// generically, so rows can be compared field for field.
func (r *liveRun) statsCells(ctx context.Context, base string) ([]map[string]any, error) {
	var resp struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := getJSON(ctx, r.admin, base+"/stats?by=cell", &resp); err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

type cellRow struct {
	Key struct {
		Device   string `json:"device"`
		Group    string `json:"group"`
		Scenario string `json:"scenario"`
	} `json:"key"`
	Sessions   int64 `json:"sessions"`
	ProbesSent int64 `json:"probes_sent"`
	ProbesLost int64 `json:"probes_lost"`
	Raw        struct {
		Samples int64 `json:"samples"`
	} `json:"raw"`
	ReportedSessions int64 `json:"reported_sessions"`
	LearnedSessions  int64 `json:"learned_sessions"`
	FamilySessions   int64 `json:"family_sessions"`
	GlobalSessions   int64 `json:"global_sessions"`
	Uncorrected      int64 `json:"uncorrected_sessions"`
}

func decodeRow(m map[string]any) (cellRow, error) {
	var c cellRow
	b, err := json.Marshal(m)
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	return c, err
}

// gateResult is the post-run correctness check.
type gateResult struct {
	mismatched map[int32]string
	problems   []string
	rungShares [numRungs]float64 // measured by the server, from /stats
}

// gate checks, after drain, that the served aggregates equal what was
// accepted: every cell's sessions, probes and raw RTT count on
// /stats?by=cell, and on hot-json the latest stream row per key.
func (r *liveRun) gate(ctx context.Context) (*gateResult, error) {
	g := &gateResult{mismatched: map[int32]string{}}
	idx := make(map[string]int32, len(r.p.keys))
	for i, k := range r.p.keys {
		idx[cellKey(k.device, k.group, k.scenario)] = int32(i)
	}
	cells, err := r.statsCells(ctx, r.d.url)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, len(r.p.keys))
	byKey := make([]map[string]any, len(r.p.keys))
	var rungs [numRungs]int64
	for _, m := range cells {
		c, err := decodeRow(m)
		if err != nil {
			return nil, err
		}
		k, ok := idx[cellKey(c.Key.Device, c.Key.Group, c.Key.Scenario)]
		if !ok {
			g.problems = append(g.problems, fmt.Sprintf("unexpected cell %s/%s", c.Key.Device, c.Key.Group))
			continue
		}
		seen[k], byKey[k] = true, m
		t := r.acc[k]
		if c.Sessions != t.sessions || c.ProbesSent != t.sent || c.ProbesLost != t.lost || c.Raw.Samples != t.rtts {
			g.mismatched[k] = fmt.Sprintf("sessions/sent/lost/rtts served %d/%d/%d/%d, sent %d/%d/%d/%d",
				c.Sessions, c.ProbesSent, c.ProbesLost, c.Raw.Samples, t.sessions, t.sent, t.lost, t.rtts)
		}
		rungs[rungNone] += c.Uncorrected
		rungs[rungReported] += c.ReportedSessions
		rungs[rungModel] += c.LearnedSessions
		rungs[rungFamily] += c.FamilySessions
		rungs[rungGlobal] += c.GlobalSessions
	}
	var total int64
	for _, n := range rungs {
		total += n
	}
	for i, n := range rungs {
		g.rungShares[i] = float64(n) / float64(max(total, 1))
	}
	for k, ok := range seen {
		if !ok && r.acc[k].sessions > 0 {
			g.mismatched[int32(k)] = "cell missing from /stats"
		}
	}
	if r.vis != nil {
		r.vis.mu.Lock()
		for k, raw := range r.vis.rows {
			var row map[string]any
			if raw == nil || json.Unmarshal(raw, &row) != nil || !reflect.DeepEqual(row, byKey[k]) {
				g.mismatched[int32(k)] = "latest stream row differs from /stats"
			}
		}
		r.vis.mu.Unlock()
	}
	return g, nil
}

// failedByGate counts accepted batches touching a mismatched key.
func (r *liveRun) failedByGate(g *gateResult) int {
	n := 0
	for b, count := range r.accBatch {
		for _, k := range b.keys {
			if _, bad := g.mismatched[k]; bad {
				n += count
				break
			}
		}
	}
	return n
}

// liveResult is everything one live run measured.
type liveResult struct {
	setups    []time.Duration
	sustained float64
	ladder    []*rung
	refResult
	// repeated lists phases measured again because of host steal.
	repeated  []string
	gate      *gateResult
	attempted int
	failed    int
	errs      []string
	rttShares []float64
	rungSent  []float64
}

// refResult is what one reference phase measured.
type refResult struct {
	ref      *rung
	read     dist
	readFail int
	rss      float64
	c0, c1   counters
	queueMax int64
	// stealFrac is the share of CPU time the hypervisor gave to others
	// during the phase: host noise, not program cost.
	stealFrac float64
}

// runLive performs a full live run: the first half of the set-ups
// (setup_s samples; the last one's daemon is measured), one settling
// second, the reference phase with the reader recording, the ladder
// (writes alone) when climb is set, drain, the correctness gate,
// teardown and the second half of the set-ups. The peak resident set
// is read right after the reference phase, so the ladder's overloaded
// rungs do not set it.
func runLive(ctx context.Context, r *liveRun, seconds int, setups int, climb bool, sampleQueue bool) (*liveResult, error) {
	res := &liveResult{}
	r.spare = time.Duration(seconds) * time.Second / 2
	defer r.teardown()
	// setUp adds one set-up sample; the daemon stays up unless keep is
	// false.
	setUp := func(keep bool) error {
		// Each launch starts from a collected generator heap, so the
		// generator's garbage collection does not compete with it.
		runtime.GC()
		d, err := r.setup(ctx, len(res.setups))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, d)
		if keep {
			return nil
		}
		return r.teardown()
	}
	before := (setups + 1) / 2
	for i := 0; i < before; i++ {
		if err := setUp(i == before-1); err != nil {
			return nil, err
		}
	}

	readerCtx, stopReader := context.WithCancel(ctx)
	var readerWG sync.WaitGroup
	defer func() {
		stopReader()
		readerWG.Wait()
	}()
	if err := r.startReader(readerCtx, &readerWG); err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}

	// One untimed second at the reference rate lets the daemon size
	// its heap and pools before anything is measured.
	if _, err := r.runPhase(ctx, r.w.refRate, 0, time.Second, r.ladderSend()); err != nil {
		return nil, fmt.Errorf("settle phase: %w", err)
	}
	if err := r.quiesce(ctx, true); err != nil {
		return nil, err
	}

	// A reference phase the host took more than maxSteal of the CPU
	// from is measured once more, if the run's spare time allows, and
	// the attempt with less steal is kept.
	refDur := time.Duration(seconds) * time.Second
	if climb {
		refDur /= 2
	}
	for attempt := 0; ; attempt++ {
		rr, err := r.reference(ctx, refDur, sampleQueue)
		if err != nil {
			return nil, err
		}
		if attempt == 0 || rr.stealFrac < res.stealFrac {
			res.refResult = *rr
		}
		if attempt > 0 || rr.stealFrac <= maxSteal || !r.spend(refDur) {
			break
		}
		res.repeated = append(res.repeated, fmt.Sprintf("reference phase (host steal %.3f)", rr.stealFrac))
	}

	// The ladder measures the write path alone; the reader's cost on
	// writes shows at the reference rate.
	stopReader()
	readerWG.Wait()
	if climb {
		var err error
		res.sustained, res.ladder, err = r.climb(ctx, time.Duration(seconds)*time.Second/ladderDivisor)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	if r.vis != nil {
		// Resubscribe so the gate sees every key's final stream row.
		subCtx, unsubscribe := context.WithCancel(ctx)
		var subWG sync.WaitGroup
		err := r.subscribe(subCtx, &subWG)
		if err == nil {
			err = r.vis.waitCaughtUp(ctx, drainTimeout)
		}
		unsubscribe()
		subWG.Wait()
		if err != nil {
			r.errs = append(r.errs, err.Error())
		}
	}

	gate, err := r.gate(ctx)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	res.gate = gate
	res.attempted = r.attempted
	res.failed = r.failed + r.failedByGate(res.gate)
	res.errs = r.errs
	res.rttShares = shares(r.accRTTs[:])
	res.rungSent = shares(r.accRungs[:])
	if err := r.teardown(); err != nil {
		return nil, err
	}
	for len(res.setups) < setups {
		if err := setUp(false); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// reference runs the reference phase with the reader recording.
func (r *liveRun) reference(ctx context.Context, dur time.Duration, sampleQueue bool) (*refResult, error) {
	if r.poll != nil {
		r.poll.mu.Lock()
		r.poll.samples, r.poll.failed = nil, 0
		r.poll.mu.Unlock()
	}
	if r.vis != nil {
		r.vis.mu.Lock()
		r.vis.samples = nil
		r.vis.mu.Unlock()
	}
	res := &refResult{}
	var err error
	if res.c0, err = r.snapshot(ctx); err != nil {
		return nil, err
	}
	var qs queueSampler
	var qwg sync.WaitGroup
	qctx, stopQ := context.WithCancel(ctx)
	if sampleQueue {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			qs.run(qctx, r.d.url)
		}()
	}
	var onSend func(*op)
	if r.vis != nil {
		onSend = r.vis.track
	}
	if r.poll != nil {
		r.poll.setRecording(true)
	}
	steal0 := stealTicks()
	res.ref, err = r.runPhase(ctx, r.w.refRate, 0, dur, onSend)
	if r.poll != nil {
		r.poll.setRecording(false)
	}
	stopQ()
	qwg.Wait()
	if err != nil {
		return nil, fmt.Errorf("reference phase: %w", err)
	}
	res.stealFrac = stealShare(steal0, res.ref.wall)
	res.queueMax = qs.max
	if res.c1, err = r.snapshot(ctx); err != nil {
		return nil, err
	}
	if res.rss, err = peakRSSMB(r.d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if err := r.quiesce(ctx, true); err != nil {
		return nil, err
	}
	switch {
	case r.vis != nil:
		r.vis.mu.Lock()
		res.read = newDist(r.vis.samples)
		res.readFail = len(r.vis.pending)
		r.vis.mu.Unlock()
	case r.poll != nil:
		r.poll.mu.Lock()
		res.read = newDist(r.poll.samples)
		res.readFail = r.poll.failed
		r.poll.mu.Unlock()
	}
	return res, nil
}

// stealShare is the share of the machine's CPU time the hypervisor
// gave to other guests since steal0 was read.
func stealShare(steal0 int64, wall time.Duration) float64 {
	return float64(stealTicks()-steal0) / clockTicks / (wall.Seconds() * float64(runtime.NumCPU()))
}

// spend takes d from the run's spare time, which pays for phases
// measured again because of host steal; it reports false, taking
// nothing, when too little is left.
func (r *liveRun) spend(d time.Duration) bool {
	if r.spare < d {
		return false
	}
	r.spare -= d
	return true
}

// quiesce waits until the daemon has folded everything accepted
// and, when streaming, until the stream shows it; then idles briefly so
// one phase's garbage collection does not land in the next.
func (r *liveRun) quiesce(ctx context.Context, streaming bool) error {
	if err := r.waitFolded(ctx); err != nil {
		return err
	}
	if streaming && r.vis != nil {
		if err := r.vis.waitCaughtUp(ctx, drainTimeout); err != nil {
			r.errs = append(r.errs, err.Error())
		}
	}
	return sleepUntil(ctx, time.Now().Add(100*time.Millisecond))
}

func shares(counts []int64) []float64 {
	var n int64
	for _, v := range counts {
		n += v
	}
	out := make([]float64, len(counts))
	for i, v := range counts {
		out[i] = float64(v) / float64(max(n, 1))
	}
	return out
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
