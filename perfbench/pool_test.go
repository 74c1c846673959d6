package main

import (
	"bytes"
	"testing"
)

// poolBytes concatenates every pre-encoded batch in send order.
func poolBytes(p *pool) []byte {
	var out []byte
	for _, b := range append(p.warmBatches(), p.run...) {
		out = append(out, b.wire...)
	}
	return out
}

type poolMix struct {
	keys  map[int32]int64
	rungs [numRungs]int64
	rtts  [numRTTClasses]int64
}

func mixOf(p *pool) poolMix {
	m := poolMix{keys: map[int32]int64{}}
	for _, b := range append(p.warmBatches(), p.run...) {
		for i, k := range b.keys {
			m.keys[k] += b.tallys[i].sessions
		}
		for i, n := range b.rungs {
			m.rungs[i] += int64(n)
		}
		for i, n := range b.rtts {
			m.rtts[i] += int64(n)
		}
	}
	return m
}

func TestPoolSeedDeterminism(t *testing.T) {
	const base = 1_700_000_040_000
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := buildPool(w, 7, base), buildPool(w, 7, base)
			if !bytes.Equal(poolBytes(a), poolBytes(b)) {
				t.Fatal("same seed gave different pre-encoded pools")
			}
			ma, mb := mixOf(a), mixOf(b)
			if ma.rungs != mb.rungs || ma.rtts != mb.rtts || len(ma.keys) != len(mb.keys) {
				t.Fatal("same seed gave a different mix")
			}
			for k, n := range ma.keys {
				if mb.keys[k] != n {
					t.Fatalf("same seed: key %d drawn %d vs %d times", k, n, mb.keys[k])
				}
			}

			c := buildPool(w, 8, base)
			if bytes.Equal(poolBytes(a), poolBytes(c)) {
				t.Fatal("different seeds gave the same pool")
			}
			mc := mixOf(c)
			same := len(mc.keys) == len(ma.keys)
			for k, n := range ma.keys {
				same = same && mc.keys[k] == n
			}
			if same && !w.hot {
				t.Error("different seeds drew every key the same number of times")
			}

			if len(ma.keys) != len(a.keys) {
				t.Errorf("pool touches %d of %d keys; the warm-up must send every key", len(ma.keys), len(a.keys))
			}
			var total int64
			for _, n := range ma.rtts {
				total += n
			}
			for i, n := range ma.rungs {
				t.Logf("rung %-8s %.4f", rungNames[i], float64(n)/float64(total))
			}
			for i, n := range ma.rtts {
				t.Logf("rtts %-8s %.4f", rttClassNames[i], float64(n)/float64(total))
			}
			if !w.hot {
				for i, n := range ma.rungs {
					if n == 0 {
						t.Errorf("fleet-shaped workload has no summary on rung %s", rungNames[i])
					}
				}
				for i, n := range ma.rtts {
					if n == 0 {
						t.Errorf("fleet-shaped workload has no summary in RTT class %s", rttClassNames[i])
					}
				}
			}
		})
	}
}

// Every event time must fall in the one window starting at base.
func TestPoolEventTimesInOneWindow(t *testing.T) {
	const base = 1_700_000_040_000
	for _, w := range workloads {
		p := buildPool(w, 3, base)
		for _, b := range append(p.warmBatches(), p.run...) {
			for _, s := range b.sums {
				if s.TimeMS < base || s.TimeMS >= base+windowMS {
					t.Fatalf("%s: event time %d outside [%d, %d)", w.name, s.TimeMS, base, base+windowMS)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
		}
	}
}
