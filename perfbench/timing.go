package main

import (
	"fmt"
	"time"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// sampleMask selects which scalar calls are timed: one in every
// sampleMask+1. A clock read costs tens of nanoseconds, more than a
// table predictor's whole Predict, so timing every call would swamp
// what it measures.
const sampleMask = 63

// sampler estimates the total time of a call that is only timed on a
// sample of its invocations. A clock read costs more than many calls
// it times, so half the samples time an empty region of the same shape
// (clock read, indirect call to a no-op, clock read) in the same
// context, and the estimate subtracts their mean from the timed calls'
// mean before scaling to all calls.
type sampler struct {
	calls          uint64
	timed, empties uint64
	timedNS        int64
	emptyNS        int64
}

const (
	sampleNone = iota
	sampleCall
	sampleEmpty
)

// next counts one call and says whether to time it, time an empty
// region before it, or neither.
func (s *sampler) next() int {
	s.calls++
	switch s.calls & sampleMask {
	case 1:
		return sampleCall
	case sampleMask/2 + 1:
		return sampleEmpty
	}
	return sampleNone
}

func (s *sampler) addCall(d time.Duration) {
	s.timed++
	s.timedNS += int64(d)
}

// noop is called through a variable so the empty region keeps its
// indirect call.
var noop = func() {}

func (s *sampler) timeEmpty() {
	t0 := time.Now()
	noop()
	s.emptyNS += int64(time.Since(t0))
	s.empties++
}

// estimate scales the sampled time to all calls.
func (s *sampler) estimate() time.Duration {
	if s.timed == 0 || s.empties == 0 {
		return 0
	}
	per := float64(s.timedNS)/float64(s.timed) - float64(s.emptyNS)/float64(s.empties)
	return time.Duration(max(per, 0) * float64(s.calls))
}

// timedPredictor times the calls the harness makes into a predictor.
// It never changes what the predictor sees or answers. The wrapper
// types below give it exactly the optional interfaces of the predictor
// it wraps, so sim.RunContext takes the same path (fused batch or
// per-branch, observed or not) as it does for the bare predictor.
type timedPredictor struct {
	p                        sim.Predictor
	predict, update, explain sampler
	batchNS, probeNS         int64
	batched                  uint64 // branches that went through SimulateBatch
}

func (t *timedPredictor) Name() string { return t.p.Name() }

func (t *timedPredictor) Predict(pc uint64) bool {
	switch t.predict.next() {
	case sampleCall:
		t0 := time.Now()
		v := t.p.Predict(pc)
		t.predict.addCall(time.Since(t0))
		return v
	case sampleEmpty:
		t.predict.timeEmpty()
	}
	return t.p.Predict(pc)
}

func (t *timedPredictor) Update(pc uint64, taken bool, target uint64) {
	switch t.update.next() {
	case sampleCall:
		t0 := time.Now()
		t.p.Update(pc, taken, target)
		t.update.addCall(time.Since(t0))
		return
	case sampleEmpty:
		t.update.timeEmpty()
	}
	t.p.Update(pc, taken, target)
}

// busy is the predictor's estimated total time: exact for batch and
// probe calls, sampled and scaled for per-branch calls.
func (t *timedPredictor) busy() time.Duration {
	return time.Duration(t.batchNS+t.probeNS) + t.predict.estimate() + t.update.estimate() + t.explain.estimate()
}

// timedBatch times every SimulateBatch call; a call covers a whole
// record batch, so two clock reads per call cost nothing measurable.
type timedBatch struct{ t *timedPredictor }

func (b timedBatch) SimulateBatch(recs []trace.Record, preds []bool) {
	t0 := time.Now()
	b.t.p.(sim.BatchSimulator).SimulateBatch(recs, preds)
	b.t.batchNS += int64(time.Since(t0))
	b.t.batched += uint64(len(recs))
}

type timedExplain struct{ t *timedPredictor }

func (e timedExplain) Explain(pc uint64) sim.Provenance {
	ex := e.t.p.(sim.Explainer)
	switch e.t.explain.next() {
	case sampleCall:
		t0 := time.Now()
		v := ex.Explain(pc)
		e.t.explain.addCall(time.Since(t0))
		return v
	case sampleEmpty:
		e.t.explain.timeEmpty()
	}
	return ex.Explain(pc)
}

type timedProbe struct{ t *timedPredictor }

func (p timedProbe) ProbeState() sim.TableStats {
	t0 := time.Now()
	v := p.t.p.(sim.StateProbe).ProbeState()
	p.t.probeNS += int64(time.Since(t0))
	return v
}

// One wrapper type per capability set the benchmark's predictors have.
// Forwarded interfaces are embedded; timed ones go through the parts
// above.
type (
	// static-taken
	wrapSnapProbe struct {
		*timedPredictor
		sim.Snapshotter
		timedProbe
	}
	// bimodal, gshare, local, tournament, yags, filter
	wrapTable struct {
		*timedPredictor
		sim.StorageAccounter
		sim.Snapshotter
		timedProbe
	}
	// oh-snap
	wrapNeural struct {
		*timedPredictor
		sim.StorageAccounter
		timedExplain
		sim.Snapshotter
		timedProbe
	}
	// tage-N, isl-tage-N
	wrapTAGE struct {
		*timedPredictor
		sim.StorageAccounter
		sim.TableHitReporter
		timedExplain
		sim.BankReacher
		sim.Snapshotter
		timedProbe
	}
	// bf-neural
	wrapBatchNeural struct {
		*timedPredictor
		timedBatch
		sim.StorageAccounter
		timedExplain
		sim.Snapshotter
		timedProbe
	}
	// bf-tage-N, bf-isl-tage-N
	wrapBatchTAGE struct {
		*timedPredictor
		timedBatch
		sim.StorageAccounter
		sim.TableHitReporter
		timedExplain
		sim.BankReacher
		sim.Snapshotter
		timedProbe
	}
)

// capKey lists a predictor's optional interfaces in a fixed order.
func capKey(p sim.Predictor) string {
	key := ""
	if _, ok := p.(sim.BatchSimulator); ok {
		key += "batch,"
	}
	for _, n := range sim.Capabilities(p).Names() {
		key += n + ","
	}
	return key
}

// wrapPredictor returns a timing wrapper for p with p's exact set of
// optional interfaces, or an error for a set no wrapper type covers.
func wrapPredictor(p sim.Predictor) (sim.Predictor, *timedPredictor, error) {
	t := &timedPredictor{p: p}
	c := sim.Capabilities(p)
	var w sim.Predictor
	switch capKey(p) {
	case "snapshot,state-probe,":
		w = wrapSnapProbe{t, c.Snapshot, timedProbe{t}}
	case "storage,snapshot,state-probe,":
		w = wrapTable{t, c.Storage, c.Snapshot, timedProbe{t}}
	case "storage,explain,snapshot,state-probe,":
		w = wrapNeural{t, c.Storage, timedExplain{t}, c.Snapshot, timedProbe{t}}
	case "storage,table-hits,explain,bank-reach,snapshot,state-probe,":
		w = wrapTAGE{t, c.Storage, c.TableHits, timedExplain{t}, c.BankReach, c.Snapshot, timedProbe{t}}
	case "batch,storage,explain,snapshot,state-probe,":
		w = wrapBatchNeural{t, timedBatch{t}, c.Storage, timedExplain{t}, c.Snapshot, timedProbe{t}}
	case "batch,storage,table-hits,explain,bank-reach,snapshot,state-probe,":
		w = wrapBatchTAGE{t, timedBatch{t}, c.Storage, c.TableHits, timedExplain{t}, c.BankReach, c.Snapshot, timedProbe{t}}
	default:
		return nil, nil, fmt.Errorf("perfbench: no timing wrapper for %s with capabilities [%s]", p.Name(), capKey(p))
	}
	return w, t, nil
}

// timedReader times every ReadBatch call into a trace reader: the
// synthesis layer for generator readers, the decode layer for trace
// files. The harness always reads through ReadBatch.
type timedReader struct {
	r       trace.BatchReader
	raw     trace.Reader
	ns      int64
	records uint64
}

func newTimedReader(r trace.Reader) *timedReader {
	return &timedReader{r: trace.Batched(r), raw: r}
}

func (t *timedReader) Read() (trace.Record, error) { return t.raw.Read() }

func (t *timedReader) ReadBatch(dst []trace.Record) (int, error) {
	t0 := time.Now()
	n, err := t.r.ReadBatch(dst)
	t.ns += int64(time.Since(t0))
	t.records += uint64(n)
	return n, err
}
