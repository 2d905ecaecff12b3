package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// benchmarkPredictors is every predictor spec any workload runs.
func benchmarkPredictors() []sim.PredictorSpec {
	var out []sim.PredictorSpec
	seen := map[string]bool{}
	for _, def := range workloadDefs() {
		for _, p := range def.preds {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// A wrapped predictor must take the same harness path as the bare one
// and produce identical counters: same capabilities, same batch
// interface, same results, and SimulateBatch used for every branch
// exactly when the bare predictor would use it.
func TestWrappedPredictorsMatchUnwrapped(t *testing.T) {
	spec, _ := workload.ByName("SERV1")
	recs, err := trace.Collect(trace.Limit(spec.Stream(30_000), 30_000))
	if err != nil {
		t.Fatal(err)
	}
	slot := &stateSlot{}
	observed := replayOptions(slot)
	observed.CheckpointEvery = 8192
	streamed := &sim.Options{Warmup: 3000, Window: 1350}
	for _, ps := range benchmarkPredictors() {
		for _, opt := range []*sim.Options{streamed, observed} {
			bare := ps.New()
			w, tp, err := wrapPredictor(ps.New())
			if err != nil {
				t.Fatalf("%s: %v", ps.Name, err)
			}
			if got, want := sim.Capabilities(w).Names(), sim.Capabilities(bare).Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: wrapped capabilities %v, bare %v", ps.Name, got, want)
			}
			_, bareBatch := bare.(sim.BatchSimulator)
			_, wrapBatch := w.(sim.BatchSimulator)
			if bareBatch != wrapBatch {
				t.Errorf("%s: wrapped BatchSimulator %v, bare %v", ps.Name, wrapBatch, bareBatch)
			}
			want, err := sim.RunContext(context.Background(), bare, recs.Stream(), *opt)
			if err != nil {
				t.Fatalf("%s bare: %v", ps.Name, err)
			}
			got, err := sim.RunContext(context.Background(), w, newTimedReader(recs.Stream()), *opt)
			if err != nil {
				t.Fatalf("%s wrapped: %v", ps.Name, err)
			}
			if got.Branches != want.Branches || got.Mispredicts != want.Mispredicts ||
				got.Instructions != want.Instructions || !reflect.DeepEqual(got.Windows, want.Windows) {
				t.Errorf("%s: wrapped counters %d/%d/%d differ from bare %d/%d/%d", ps.Name,
					got.Branches, got.Mispredicts, got.Instructions, want.Branches, want.Mispredicts, want.Instructions)
			}
			// The harness batches only immediate, unobserved runs.
			wantBatched := uint64(0)
			if bareBatch && !opt.Explain {
				wantBatched = want.Branches
			}
			if tp.batched != wantBatched {
				t.Errorf("%s (explain=%v): %d branches batched, want %d", ps.Name, opt.Explain, tp.batched, wantBatched)
			}
			// Cheap calls can estimate to zero; what must hold is that
			// every path the harness took was timed.
			if wantBatched > 0 && tp.batchNS <= 0 {
				t.Errorf("%s: SimulateBatch was not timed", ps.Name)
			}
			if wantBatched == 0 && (tp.predict.timed == 0 || tp.predict.empties == 0 || tp.update.timed == 0) {
				t.Errorf("%s: per-branch calls were not sampled", ps.Name)
			}
		}
	}
}

func TestWrapPredictorRejectsUnknownCapabilitySet(t *testing.T) {
	if _, _, err := wrapPredictor(noopPredictor{}); err == nil {
		t.Fatal("a predictor with no optional interfaces has no wrapper type, want an error")
	}
}

func TestTimedReaderCountsRecords(t *testing.T) {
	spec, _ := workload.ByName("INT2")
	want, err := trace.Collect(trace.Limit(spec.Stream(10_000), 10_000))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTimedReader(trace.Limit(spec.Stream(10_000), 10_000))
	var got trace.Slice
	buf := make([]trace.Record, 4096)
	for {
		n, err := tr.ReadBatch(buf)
		if err != nil {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("timed reader changed the records")
	}
	if tr.records != 10_000 || tr.ns <= 0 {
		t.Errorf("timed reader counted %d records in %dns, want 10000 in > 0", tr.records, tr.ns)
	}
}

func TestSamplerScalesSampledTime(t *testing.T) {
	var s sampler
	calls, empties := 0, 0
	for i := 0; i < 640; i++ {
		switch s.next() {
		case sampleCall:
			calls++
			// 1µs of work on top of an 80ns clock overhead.
			s.addCall(1080 * time.Nanosecond)
		case sampleEmpty:
			empties++
			s.empties++
			s.emptyNS += 80
		}
	}
	if calls != 10 || empties != 10 {
		t.Fatalf("%d calls and %d empty regions timed of 640, want 10 and 10", calls, empties)
	}
	if got := s.estimate(); got != 640*time.Microsecond {
		t.Errorf("estimate = %v, want 640µs", got)
	}
	fast := sampler{calls: 64, timed: 1, timedNS: 70, empties: 1, emptyNS: 80}
	if got := fast.estimate(); got != 0 {
		t.Errorf("estimate of a call faster than the clock = %v, want 0", got)
	}
}
