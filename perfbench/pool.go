package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/ingest"
)

// Knowledge classes of a model, one per rung of the puncture ladder a
// summary from it resolves on once the warm-up has taught the store.
const (
	classReported = iota // ships its own attribution
	classLearned         // blind; its model profile was taught in warm-up
	classFamily          // blind, never attributes; its chipset family was taught
	classGlobal          // blind, no chipset: the global prior corrects
)

// Rungs, in puncture.Source order.
const (
	rungNone = iota
	rungReported
	rungModel
	rungFamily
	rungGlobal
	numRungs
)

var rungNames = [numRungs]string{"none", "reported", "model", "family", "global"}

// censusModels is the five-model census the hot workload posts.
var censusModels = [5][2]string{
	{"Google Nexus 5", "BCM4339"},
	{"Google Nexus 4", "WCN3660"},
	{"HTC One", "WCN3680"},
	{"Sony Xperia J", "BCM4330"},
	{"Samsung Grand", "BCM4329"},
}

const numFamilies = 12

type keyInfo struct {
	device, group, scenario, chipset string
	class                            int
}

// tally is what one key received: the fields the correctness gate
// compares against /stats.
type tally struct {
	sessions, sent, lost, rtts int64
}

func (t *tally) add(o tally) {
	t.sessions += o.sessions
	t.sent += o.sent
	t.lost += o.lost
	t.rtts += o.rtts
}

// batch is one pre-encoded batch plus what the generator needs to
// check it: the keys it touches with their per-key tallies, and its
// rung and RTT-class mix.
type batch struct {
	sums   []ingest.Summary
	wire   []byte
	keys   []int32
	tallys []tally
	rungs  [numRungs]int32
	rtts   [numRTTClasses]int32
}

// pool holds a workload's inputs, all derived from one seed.
type pool struct {
	w    *workload
	keys []keyInfo
	// warm is the warm-up pass in phases; each phase is acknowledged
	// and folded before the next starts, so the rung every warm-up
	// summary resolves on does not depend on fold scheduling.
	warm [][]*batch
	// run is cycled through by the timed phases.
	run []*batch
}

// buildPool generates a workload's inputs from seed. baseMS is the
// start of the aggregation window every event time falls in.
func buildPool(w *workload, seed int64, baseMS int64) *pool {
	rng := rand.New(rand.NewSource(seed))
	p := &pool{w: w}
	p.keys = makeKeys(w, rng)

	g := &generator{w: w, rng: rng, baseMS: baseMS}
	var cold, teach, rest []int
	for i, k := range p.keys {
		switch {
		case k.class == classReported || k.class == classLearned:
			teach = append(teach, i)
		case k.class == classGlobal && len(cold) < batchSize:
			cold = append(cold, i)
		default:
			rest = append(rest, i)
		}
	}
	// Phase 0 runs before anything is taught, so its blind summaries
	// are the only ones that resolve uncorrected. Phase 1 teaches every
	// attributing model; phase 2 mints the remaining keys.
	for phase, idx := range [][]int{cold, teach, rest} {
		var batches []*batch
		for lo := 0; lo < len(idx); lo += batchSize {
			hi := min(lo+batchSize, len(idx))
			var bb batchDraft
			for _, ki := range idx[lo:hi] {
				s, r := g.summary(p.keys, ki, phase == 1)
				if phase == 0 {
					r = rungNone
				}
				bb.add(s, ki, r)
			}
			batches = append(batches, p.newBatch(&bb))
		}
		if len(batches) > 0 {
			p.warm = append(p.warm, batches)
		}
	}

	for b := 0; b < w.runBatches; b++ {
		var bb batchDraft
		if w.hot {
			for _, m := range rng.Perm(len(p.keys)) {
				for j := 0; j < batchSize/len(p.keys); j++ {
					s, r := g.summary(p.keys, m, false)
					bb.add(s, m, r)
				}
			}
		} else {
			for j := 0; j < batchSize; j++ {
				ki := rng.Intn(len(p.keys))
				s, r := g.summary(p.keys, ki, false)
				bb.add(s, ki, r)
			}
		}
		p.run = append(p.run, p.newBatch(&bb))
	}
	return p
}

// makeKeys lays out the key space and assigns each model its
// knowledge class and chipset family.
func makeKeys(w *workload, rng *rand.Rand) []keyInfo {
	if w.hot {
		// Three census models report their own attribution; the other
		// two are calibrated devices corrected from their learned model
		// profile.
		keys := make([]keyInfo, len(censusModels))
		for i, m := range censusModels {
			class := classReported
			if i >= 3 {
				class = classLearned
			}
			keys[i] = keyInfo{device: m[0], group: m[0], scenario: w.name, chipset: m[1], class: class}
		}
		return keys
	}
	// Models are shuffled into classes: 30% reported, 30% learned,
	// 20% family, 20% global. Attributing models are dealt round-robin
	// over the chipset families so every family is taught.
	perm := rng.Perm(w.models)
	classOf := make([]int, w.models)
	chipOf := make([]string, w.models)
	for rank, m := range perm {
		f := float64(rank) / float64(w.models)
		switch {
		case f < 0.3:
			classOf[m] = classReported
		case f < 0.6:
			classOf[m] = classLearned
		case f < 0.8:
			classOf[m] = classFamily
		default:
			classOf[m] = classGlobal
		}
		if classOf[m] != classGlobal {
			chipOf[m] = fmt.Sprintf("fam-%02d", rank%numFamilies)
		}
	}
	keys := make([]keyInfo, 0, w.models*w.cohorts)
	for m := 0; m < w.models; m++ {
		for c := 0; c < w.cohorts; c++ {
			keys = append(keys, keyInfo{
				device:   fmt.Sprintf("model-%03d", m),
				group:    fmt.Sprintf("cohort-%02d", c),
				scenario: w.name,
				chipset:  chipOf[m],
				class:    classOf[m],
			})
		}
	}
	return keys
}

type generator struct {
	w      *workload
	rng    *rand.Rand
	baseMS int64
}

// summary draws one session summary for key ki. teach forces the
// summary to carry its attribution (warm-up teaching). It returns the
// rung the summary resolves on once the store is taught.
func (g *generator) summary(keys []keyInfo, ki int, teach bool) (ingest.Summary, int) {
	k := &keys[ki]
	rng := g.rng
	s := ingest.Summary{
		Device:   k.device,
		Group:    k.group,
		Scenario: k.scenario,
		Chipset:  k.chipset,
		TimeMS:   g.baseMS + rng.Int63n(windowMS),
	}
	rung := rungReported
	switch {
	case teach || k.class == classReported:
		s.LayersOK = true
		s.UserOverheadNS = 500_000 + rng.Int63n(2_500_000)
		s.SDIOOverheadNS = 200_000 + rng.Int63n(1_800_000)
		s.PSMInflationNS = rng.Int63n(5_000_000)
	case k.class == classLearned:
		rung = rungModel
		s.Calibrated = g.w.hot
	case k.class == classFamily:
		rung = rungFamily
	default:
		rung = rungGlobal
	}
	base := 15_000_000 + int64(ki%37)*1_000_000
	draw := func() int64 { return base + int64(rng.ExpFloat64()*4e6) }

	u := rng.Float64()
	class := rtt20
	for c, acc := 0, 0.0; c < numRTTClasses; c++ {
		acc += g.w.rttMix[c]
		if u < acc {
			class = c
			break
		}
	}
	lost := rng.Intn(3)
	switch class {
	case rttSketch:
		sk := agg.NewSketch(0)
		for i := 0; i < 20; i++ {
			sk.Add(float64(draw()))
		}
		s.Sketch = sk
		s.Sent = 20 + lost
	default:
		n := [...]int{rtt1: 1, rtt20: 20, rtt200: 200}[class]
		s.RTTs = make([]int64, n)
		for i := range s.RTTs {
			s.RTTs[i] = draw()
		}
		s.Sent = n + lost
	}
	s.Lost = lost
	return s, rung
}

// batchDraft collects a batch's summaries with their key indices
// and expected rungs.
type batchDraft struct {
	sums  []ingest.Summary
	kis   []int
	rungs []int
}

func (bb *batchDraft) add(s ingest.Summary, ki, rung int) {
	bb.sums = append(bb.sums, s)
	bb.kis = append(bb.kis, ki)
	bb.rungs = append(bb.rungs, rung)
}

// newBatch encodes a batch on the workload's wire and records its
// per-key tallies and mix.
func (p *pool) newBatch(bb *batchDraft) *batch {
	b := &batch{sums: bb.sums, wire: encodeWire(p.w.wire, bb.sums)}
	pos := map[int]int{}
	for i := range bb.sums {
		s := &bb.sums[i]
		j, ok := pos[bb.kis[i]]
		if !ok {
			j = len(b.keys)
			pos[bb.kis[i]] = j
			b.keys = append(b.keys, int32(bb.kis[i]))
			b.tallys = append(b.tallys, tally{})
		}
		t := tally{sessions: 1, sent: int64(s.Sent), lost: int64(s.Lost), rtts: int64(len(s.RTTs))}
		if s.Sketch != nil {
			t.rtts = s.Sketch.Count
		}
		b.tallys[j].add(t)
		b.rungs[bb.rungs[i]]++
		b.rtts[rttClassOf(s)]++
	}
	return b
}

func rttClassOf(s *ingest.Summary) int {
	switch {
	case s.Sketch != nil:
		return rttSketch
	case len(s.RTTs) == 1:
		return rtt1
	case len(s.RTTs) == 200:
		return rtt200
	default:
		return rtt20
	}
}

// encodeWire encodes a batch on the given wire. Encoding a generated
// batch cannot fail; a failure is a bug in the generator.
func encodeWire(wire string, sums []ingest.Summary) []byte {
	if wire == wireJSON {
		var buf bytes.Buffer
		if err := ingest.EncodeBatch(&buf, sums); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	out, err := ingest.AppendBinaryBatch(nil, sums)
	if err != nil {
		panic(err)
	}
	return out
}

// warmBatches lists the warm-up batches across phases.
func (p *pool) warmBatches() []*batch {
	var out []*batch
	for _, ph := range p.warm {
		out = append(out, ph...)
	}
	return out
}
