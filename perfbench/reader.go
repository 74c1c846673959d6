package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// poller is the dashboard reader: GET /stats?by=device at a fixed rate
// on its own connection, each timed from its due time until the body
// is fully read. Polls are recorded only while recording is on.
type poller struct {
	client *http.Client
	url    string
	hz     float64

	mu        sync.Mutex
	recording bool
	samples   []float64
	failed    int
}

func (p *poller) setRecording(on bool) {
	p.mu.Lock()
	p.recording = on
	p.mu.Unlock()
}

// run polls until ctx ends.
func (p *poller) run(ctx context.Context) {
	interval := time.Duration(float64(time.Second) / p.hz)
	due := time.Now()
	for {
		if sleepUntil(ctx, due) != nil {
			return
		}
		err := p.get(ctx)
		done := time.Now()
		if ctx.Err() != nil {
			return
		}
		p.mu.Lock()
		if p.recording {
			if err != nil {
				p.failed++
			} else {
				p.samples = append(p.samples, msBetween(due, done))
			}
		}
		p.mu.Unlock()
		due = due.Add(interval)
	}
}

func (p *poller) get(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats poll: HTTP %d", resp.StatusCode)
	}
	return nil
}

// visTracker follows one /v1/stream?by=cell subscription and times
// each registered batch from its due time until the first event whose
// sessions count covers the batch in every cell it touched. Sessions
// needed are cumulative: because batches are accepted in schedule
// order, a cell holding at least the sessions sent up to and including
// a batch has folded that batch.
type visTracker struct {
	keyIdx map[string]int32

	mu      sync.Mutex
	sent    []int64 // cumulative sessions sent per key
	latest  []int64 // latest sessions per key seen on the stream
	rows    []json.RawMessage
	pending []visOp
	samples []float64
	changed chan struct{} // signalled after each event (buffer 1: a wake-up)
}

type visOp struct {
	due  time.Time
	keys []int32
	need []int64
}

func newVisTracker(p *pool) *visTracker {
	v := &visTracker{
		keyIdx:  make(map[string]int32, len(p.keys)),
		sent:    make([]int64, len(p.keys)),
		latest:  make([]int64, len(p.keys)),
		rows:    make([]json.RawMessage, len(p.keys)),
		changed: make(chan struct{}, 1),
	}
	for i, k := range p.keys {
		v.keyIdx[cellKey(k.device, k.group, k.scenario)] = int32(i)
	}
	return v
}

func cellKey(device, group, scenario string) string {
	return device + "\x00" + group + "\x00" + scenario
}

// add counts a batch sent outside the timed window (warm-up, ladder).
func (v *visTracker) add(b *batch) {
	v.mu.Lock()
	for i, k := range b.keys {
		v.sent[k] += b.tallys[i].sessions
	}
	v.mu.Unlock()
}

// track counts a batch and times its visibility. It must run before
// the batch's first write.
func (v *visTracker) track(o *op) {
	v.mu.Lock()
	vo := visOp{due: o.due, keys: o.b.keys, need: make([]int64, len(o.b.keys))}
	for i, k := range o.b.keys {
		v.sent[k] += o.b.tallys[i].sessions
		vo.need[i] = v.sent[k]
	}
	v.pending = append(v.pending, vo)
	v.mu.Unlock()
}

// run reads the stream until ctx ends or the stream breaks.
func (v *visTracker) run(ctx context.Context, client *http.Client, url string, ready chan<- error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		ready <- err
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ready <- fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		return
	}
	ready <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event:")):
			event = strings.TrimSpace(string(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")) && event == "delta":
			v.apply(line[len("data:"):], time.Now())
		case len(line) == 0:
			event = ""
		}
	}
}

type streamCell struct {
	Key struct {
		Device   string `json:"device"`
		Group    string `json:"group"`
		Scenario string `json:"scenario"`
	} `json:"key"`
	Sessions int64 `json:"sessions"`
}

func (v *visTracker) apply(data []byte, now time.Time) {
	var ev struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, raw := range ev.Cells {
		var c streamCell
		if json.Unmarshal(raw, &c) != nil {
			continue
		}
		k, ok := v.keyIdx[cellKey(c.Key.Device, c.Key.Group, c.Key.Scenario)]
		if !ok {
			continue
		}
		v.latest[k] = c.Sessions
		v.rows[k] = raw
	}
	kept := v.pending[:0]
	for _, vo := range v.pending {
		if v.covers(vo) {
			v.samples = append(v.samples, msBetween(vo.due, now))
		} else {
			kept = append(kept, vo)
		}
	}
	v.pending = kept
	select {
	case v.changed <- struct{}{}:
	default:
	}
}

func (v *visTracker) covers(vo visOp) bool {
	for i, k := range vo.keys {
		if v.latest[k] < vo.need[i] {
			return false
		}
	}
	return true
}

// caughtUp reports whether the stream has shown every sent session.
func (v *visTracker) caughtUp() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k := range v.sent {
		if v.latest[k] < v.sent[k] {
			return false
		}
	}
	return len(v.pending) == 0
}

// waitCaughtUp waits until the stream shows every sent session.
func (v *visTracker) waitCaughtUp(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for !v.caughtUp() {
		select {
		case <-v.changed:
		case <-ctx.Done():
			v.mu.Lock()
			n := len(v.pending)
			v.mu.Unlock()
			return fmt.Errorf("stream did not show %d batch(es) within %v", n, timeout)
		}
	}
	return nil
}
