package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stub server that stalls once must show the stall in accept p99 and
// in the generator's lateness, charged to every batch due during it.
// Timing each batch from its send instead (a closed-loop timer) hides
// it.

const (
	stubInterval = 2 * time.Millisecond
	stubOps      = 500 // one second of schedule
	stubStallAt  = 150 // the op whose handling stalls
	stubStall    = 300 * time.Millisecond
)

func stubOpsFor(frame []byte) []*op {
	b := &batch{wire: frame}
	t0 := time.Now().Add(20 * time.Millisecond)
	ops := make([]*op, stubOps)
	for i := range ops {
		ops[i] = &op{b: b, due: t0.Add(time.Duration(i) * stubInterval)}
	}
	return ops
}

type stallStats struct {
	accept, late, closed dist
}

func measureOps(t *testing.T, ops []*op) stallStats {
	t.Helper()
	var acc, late, closed []float64
	for _, o := range ops {
		if o.done.IsZero() {
			t.Fatalf("op due %v was never accepted: %v", o.due, o.err)
		}
		acc = append(acc, o.acceptMS())
		late = append(late, o.lateMS())
		closed = append(closed, msBetween(o.sent, o.done))
	}
	return stallStats{newDist(acc), newDist(late), newDist(closed)}
}

func checkStallShows(t *testing.T, s stallStats) {
	t.Helper()
	stallMS := float64(stubStall / time.Millisecond)
	// Batches due in the stall's first half wait at least half of it.
	if p := s.accept.q(0.99); p < stallMS/2 {
		t.Errorf("accept p99 = %.1f ms, want >= %.0f ms: the stall is hidden", p, stallMS/2)
	}
	if p := s.late.q(0.99); p < stallMS/4 {
		t.Errorf("generator late p99 = %.1f ms, want >= %.0f ms", p, stallMS/4)
	}
	// Every batch due in the first half of the stall is charged at
	// least a quarter of it.
	due := int(stubStall / 2 / stubInterval)
	slow := 0
	for _, v := range s.accept {
		if v >= stallMS/4 {
			slow++
		}
	}
	if slow < due {
		t.Errorf("%d batches charged >= %.0f ms, want >= %d (every batch due during the stall)", slow, stallMS/4, due)
	}
}

func TestOpenLoopChargesStallHTTP(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.Add(1) == stubStallAt {
			time.Sleep(stubStall)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	h := newHTTPSender(srv.URL)
	defer h.close()
	ops := stubOpsFor([]byte("batch"))
	if err := h.send(context.Background(), ops, stubInterval, nil); err != nil {
		t.Fatal(err)
	}
	s := measureOps(t, ops)
	checkStallShows(t, s)
	// One POST at a time: a closed-loop timer sees one slow request.
	if p := s.closed.q(0.99); p >= float64(stubStall/time.Millisecond)/4 {
		t.Errorf("closed-loop p99 = %.1f ms; expected it to hide the stall", p)
	}
}

func TestOpenLoopChargesStallTCP(t *testing.T) {
	frame := make([]byte, 100)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		buf := make([]byte, len(frame))
		for i := 1; ; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				served <- nil // client closed
				return
			}
			if i == stubStallAt {
				time.Sleep(stubStall)
			}
			if _, err := c.Write([]byte{tcpAccepted}); err != nil {
				served <- err
				return
			}
		}
	}()
	ts, err := dialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ops := stubOpsFor(frame)
	sendErr := ts.send(context.Background(), ops, stubInterval, nil)
	ts.close()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	checkStallShows(t, measureOps(t, ops))
}

func TestTCPBusyIsRetried(t *testing.T) {
	frame := make([]byte, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(frame))
		for i := 1; ; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			st := byte(tcpAccepted)
			if i%3 == 0 {
				st = tcpBusy
			}
			if _, err := c.Write([]byte{st}); err != nil {
				return
			}
		}
	}()
	ts, err := dialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	ops := stubOpsFor(frame)[:50]
	if err := ts.send(context.Background(), ops, stubInterval, nil); err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, o := range ops {
		if o.done.IsZero() {
			t.Fatalf("op not accepted: %v", o.err)
		}
		if o.tries > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no op was retried after a busy byte")
	}
}

func TestBacklogGrows(t *testing.T) {
	t0 := time.Now()
	mk := func(lag func(i int) time.Duration) []*op {
		ops := make([]*op, 100)
		for i := range ops {
			due := t0.Add(time.Duration(i) * time.Millisecond)
			ops[i] = &op{due: due, done: due.Add(lag(i))}
		}
		return ops
	}
	if backlogGrows(mk(func(int) time.Duration { return time.Millisecond })) {
		t.Error("steady 1 ms lag reported as a growing backlog")
	}
	// One pause late in the phase is not growth.
	if backlogGrows(mk(func(i int) time.Duration {
		if i >= 90 && i < 95 {
			return 30 * time.Millisecond
		}
		return time.Millisecond
	})) {
		t.Error("a single late pause reported as a growing backlog")
	}
	// Served at half the offered rate: batch i is acknowledged at 2i ms.
	if !backlogGrows(mk(func(i int) time.Duration { return time.Duration(i) * time.Millisecond })) {
		t.Error("backlog growing linearly not detected")
	}
}

// With a sharp knee the search returns the highest passing rung, and
// when the knee is noisy it returns a rung inside the noisy band.
func TestSearchLadderFindsKnee(t *testing.T) {
	const n = 40
	for _, knee := range []int{0, 3, 8, 19, 20, n - 1} {
		attempts := 0
		got, err := searchLadder(n, func(i int) (bool, bool, error) {
			attempts++
			return i <= knee, i > knee+3, nil
		})
		if err != nil || got != knee {
			t.Errorf("knee %d: got rung %d, err %v", knee, got, err)
		}
		if attempts > n/coarseStep*3+staircaseTrials {
			t.Errorf("knee %d: %d attempts", knee, attempts)
		}
	}
	got, _ := searchLadder(n, func(int) (bool, bool, error) { return false, false, nil })
	if got != -1 {
		t.Errorf("no rung passes: got %d, want -1", got)
	}
	// Rungs 17 and 18 pass every other attempt.
	flip := false
	got, _ = searchLadder(n, func(i int) (bool, bool, error) {
		flip = !flip
		return i < 17 || (i <= 18 && flip), i > 21, nil
	})
	if got < 16 || got > 18 {
		t.Errorf("noisy knee 17-18: got rung %d", got)
	}
}
