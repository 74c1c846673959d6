package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// op is one batch on the open-loop schedule. Latency is timed from
// due, never from sent, so a stall is charged to every batch queued
// behind it.
type op struct {
	b    *batch
	due  time.Time
	sent time.Time // first write
	done time.Time // accepted (202 or TCP status 0)
	// retryAt is when a refused op may be sent again: the next tick of
	// the schedule after the refusal.
	retryAt time.Time
	tries   int
	failed  bool
	err     error
}

func (o *op) acceptMS() float64 { return msBetween(o.due, o.done) }
func (o *op) lateMS() float64   { return msBetween(o.due, o.sent) }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// sender delivers a phase's ops to the ingest node in due order.
// interval is the schedule's tick, the earliest a refused op is
// retried. onSend, when non-nil, runs once per op just before its
// first write. send returns when every op is accepted or failed, or
// when ctx ends (remaining ops are then marked failed).
type sender interface {
	send(ctx context.Context, ops []*op, interval time.Duration, onSend func(*op)) error
	close()
}

// makeOps lays n batches of the pool on a fixed-rate schedule starting
// at t0, continuing the pool cursor.
func makeOps(p *pool, cursor *int, rate float64, dur time.Duration, t0 time.Time) ([]*op, time.Duration) {
	interval := time.Duration(float64(time.Second) * batchSize / rate)
	n := int(dur / interval)
	if n < 1 {
		n = 1
	}
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = &op{b: p.run[*cursor%len(p.run)], due: t0.Add(time.Duration(i) * interval)}
		*cursor++
	}
	return ops, interval
}

// sleepUntil waits for t or ctx.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// failRest marks every op that is neither accepted nor failed as
// failed with err.
func failRest(ops []*op, err error) {
	for _, o := range ops {
		if o.done.IsZero() && !o.failed {
			o.failed, o.err = true, err
		}
	}
}

// --- raw TCP: frames pipelined on one connection, acks matched in order ---

const (
	tcpAccepted = 0
	tcpBusy     = 1
)

type tcpSender struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialTCP(addr string) (*tcpSender, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpSender{conn: c, br: bufio.NewReader(c)}, nil
}

func (t *tcpSender) close() { t.conn.Close() }

func (t *tcpSender) send(ctx context.Context, ops []*op, interval time.Duration, onSend func(*op)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// inflight is the send window: its capacity is the cap on
	// unacknowledged frames, and it hands each written op to the ack
	// reader in write order.
	inflight := make(chan *op, tcpWindow)
	retries := make(chan *op, len(ops)) // every op can be refused at most once at a time
	// Ending ctx (a write error, the caller giving up, or the ack
	// reader finishing) unblocks the ack reader's pending read.
	unblocked := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		t.conn.SetReadDeadline(time.Now())
		close(unblocked)
	})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = t.readAcks(ctx, len(ops), inflight, retries, interval)
		cancel()
	}()
	writeErr := t.writeFrames(ctx, ops, inflight, retries, onSend)
	if writeErr != nil {
		cancel()
	}
	wg.Wait()
	if !stop() {
		<-unblocked
	}
	t.conn.SetReadDeadline(time.Time{})
	err := errors.Join(writeErr, readErr)
	if err != nil {
		failRest(ops, err)
	}
	return err
}

// writeFrames sends new ops at their due times and refused ops at
// their retry ticks, coalescing whatever is due into one write.
func (t *tcpSender) writeFrames(ctx context.Context, ops []*op, inflight chan<- *op, retries <-chan *op, onSend func(*op)) error {
	var buf []byte
	var pending []*op // refused, waiting for retryAt
	next := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := t.conn.Write(buf)
		buf = buf[:0]
		return err
	}
	push := func(o *op) error {
		select {
		case inflight <- o:
		default:
			// Window full: put what is buffered on the wire, then wait
			// for an ack to free a slot.
			if err := flush(); err != nil {
				return err
			}
			select {
			case inflight <- o:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		now := time.Now()
		if o.sent.IsZero() {
			if onSend != nil {
				onSend(o)
			}
			o.sent = now
		}
		o.tries++
		buf = append(buf, o.b.wire...)
		return nil
	}
	for {
	drain:
		for {
			select {
			case o := <-retries:
				pending = append(pending, o)
			default:
				break drain
			}
		}
		now := time.Now()
		wake := time.Time{}
		kept := pending[:0]
		for _, o := range pending {
			if !o.retryAt.After(now) {
				if err := push(o); err != nil {
					return err
				}
				continue
			}
			kept = append(kept, o)
			if wake.IsZero() || o.retryAt.Before(wake) {
				wake = o.retryAt
			}
		}
		pending = kept
		for next < len(ops) && !ops[next].due.After(now) {
			if err := push(ops[next]); err != nil {
				return err
			}
			next++
		}
		if err := flush(); err != nil {
			return err
		}
		if next < len(ops) && (wake.IsZero() || ops[next].due.Before(wake)) {
			wake = ops[next].due
		}
		if wake.IsZero() {
			// Everything is written: wait for a refusal or the end.
			select {
			case o := <-retries:
				pending = append(pending, o)
				continue
			case <-ctx.Done():
				return nil // the ack reader finished or failed
			}
		}
		tm := time.NewTimer(time.Until(wake))
		select {
		case <-tm.C:
		case o := <-retries:
			tm.Stop()
			pending = append(pending, o)
		case <-ctx.Done():
			tm.Stop()
			return nil
		}
	}
}

// readAcks matches status bytes to written ops in order until every op
// is accepted.
func (t *tcpSender) readAcks(ctx context.Context, n int, inflight <-chan *op, retries chan<- *op, interval time.Duration) error {
	accepted := 0
	for accepted < n {
		st, err := t.br.ReadByte()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("tcp ack: %w", err)
		}
		var o *op
		select {
		case o = <-inflight:
		default:
			return errors.New("tcp ack: status byte with no frame in flight")
		}
		now := time.Now()
		switch st {
		case tcpAccepted:
			o.done = now
			accepted++
		case tcpBusy:
			o.retryAt = now.Add(interval)
			retries <- o
		default:
			o.failed, o.err = true, fmt.Errorf("tcp status %d", st)
			return o.err
		}
	}
	return nil
}

// --- HTTP: one keep-alive connection, one POST at a time ---

type httpSender struct {
	client *http.Client
	url    string
}

func newHTTPSender(base string) *httpSender {
	return &httpSender{client: oneConnClient(), url: base + "/v1/ingest"}
}

// oneConnClient is an HTTP client restricted to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func (h *httpSender) close() { h.client.CloseIdleConnections() }

// send posts ops in order. A refused op is re-posted at the next tick
// before any later op, so acceptance order equals schedule order.
func (h *httpSender) send(ctx context.Context, ops []*op, interval time.Duration, onSend func(*op)) error {
	for _, o := range ops {
		if err := sleepUntil(ctx, o.due); err != nil {
			failRest(ops, err)
			return err
		}
		for {
			if !o.retryAt.IsZero() {
				if err := sleepUntil(ctx, o.retryAt); err != nil {
					failRest(ops, err)
					return err
				}
			}
			if o.sent.IsZero() {
				if onSend != nil {
					onSend(o)
				}
				o.sent = time.Now()
			}
			o.tries++
			code, err := h.post(ctx, o.b.wire)
			now := time.Now()
			switch {
			case err != nil:
				failRest(ops, err)
				return err
			case code == http.StatusAccepted:
				o.done = now
			case code == http.StatusServiceUnavailable:
				o.retryAt = now.Add(interval)
				continue
			default:
				o.failed, o.err = true, fmt.Errorf("ingest: HTTP %d", code)
			}
			break
		}
	}
	return nil
}

func (h *httpSender) post(ctx context.Context, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}
