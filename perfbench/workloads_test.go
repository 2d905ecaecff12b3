package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

func TestSeedPlumbing(t *testing.T) {
	for _, def := range workloadDefs() {
		canon, err := seededSpecs(def, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range canon {
			want, ok := workload.ByName(s.Name)
			if !ok || s.String() != want.String() {
				t.Fatalf("%s: seed 0 spec %v is not the canonical %v", def.name, s, want)
			}
		}
	}
	def, _ := workloadByName("flagship-suite")
	canon, _ := seededSpecs(def, 0)
	reseeded, _ := seededSpecs(def, 7)
	again, _ := seededSpecs(def, 7)
	first := func(s workload.Spec) trace.Slice {
		recs, err := trace.Collect(trace.Limit(s.Stream(2000), 2000))
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	for i := range canon {
		want, _ := workload.ByName(canon[i].Name)
		if !reflect.DeepEqual(first(canon[i]), first(want)) {
			t.Errorf("%s: seed 0 records differ from the canonical spec's", canon[i].Name)
		}
		if reflect.DeepEqual(first(canon[i]), first(reseeded[i])) {
			t.Errorf("%s: seed 7 yields the canonical records", canon[i].Name)
		}
		if !reflect.DeepEqual(first(reseeded[i]), first(again[i])) {
			t.Errorf("%s: seed 7 is not reproducible", canon[i].Name)
		}
	}
}

// BENCHMARK.json is the contract later changes cite; its workload and
// metric names must be the ones this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, d := range workloadDefs() {
		want = append(want, d.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}

// smallDef shrinks a workload to a quick test matrix.
func smallDef(t *testing.T, name string, traces []string) workloadDef {
	def, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	def.traces = traces
	if !def.replay {
		def.branches = 20_000
	}
	return def
}

// A traced round must reproduce the untraced round's counters, and
// (replay) every resume leg its straight run.
func TestTracedRoundsMatchUntraced(t *testing.T) {
	ctx := context.Background()
	for _, def := range []workloadDef{
		smallDef(t, "flagship-suite", []string{"SERV1"}),
		smallDef(t, "table-sweep", []string{"SPEC03", "MM1"}),
		smallDef(t, "replay-observed", []string{"INT2"}),
	} {
		b, err := newBench(def, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		var rounds []roundResult
		for _, traced := range []bool{false, true} {
			r, err := b.setup(traced)
			if err != nil {
				t.Fatal(err)
			}
			rr := b.run(ctx, r)
			if len(rr.failed) > 0 {
				t.Fatalf("%s traced=%v: failed cells %v", def.name, traced, rr.failed)
			}
			rounds = append(rounds, rr)
		}
		if err := b.close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(b.dir); def.replay && !os.IsNotExist(err) {
			t.Errorf("%s: trace file directory %s left behind", def.name, b.dir)
		}
		if !reflect.DeepEqual(rounds[0].cells, rounds[1].cells) {
			t.Errorf("%s: traced counters %v differ from untraced %v", def.name, rounds[1].cells, rounds[0].cells)
		}
		if rounds[0].layers != nil {
			t.Errorf("%s: an untraced round reported layer metrics", def.name)
		}
		m := rounds[1].layers
		for _, p := range def.preds {
			if _, ok := m["pred."+p.Name+".ns_per_branch"]; !ok {
				t.Errorf("%s: no time for predictor %s", def.name, p.Name)
			}
		}
		if _, ok := m["sim.run.self_s"]; !ok || m["sim.engine.cells"] != float64(rounds[1].attempted) {
			t.Errorf("%s: engine cells %v (attempted %d), self %v", def.name, m["sim.engine.cells"], rounds[1].attempted, m["sim.run.self_s"])
		}
		if def.replay {
			if m["state.saves"] != float64(len(def.preds)*replayBranches/replayCkptEvery) || m["trace.decode_ns_per_record"] <= 0 {
				t.Errorf("%s: saves %v, decode %v ns/record", def.name, m["state.saves"], m["trace.decode_ns_per_record"])
			}
			if rounds[1].attempted != 2*len(def.preds) {
				t.Errorf("%s: %d cells attempted, want straight plus resume legs", def.name, rounds[1].attempted)
			}
		} else if m["workload.ns_per_record"] <= 0 {
			t.Errorf("%s: no synthesis time recorded", def.name)
		}
	}
}

func TestCheckResume(t *testing.T) {
	skip := (replayResumeAt - replayWarmup) / replayWindow
	straight := sim.Stats{Windows: make([]sim.WindowStat, skip+2)}
	for i := range straight.Windows {
		straight.Windows[i] = sim.WindowStat{Branches: replayWindow, Mispredicts: uint64(i), Instructions: 4 * replayWindow}
	}
	resumed := sim.Stats{Branches: replayBranches - replayResumeAt, Windows: append([]sim.WindowStat(nil), straight.Windows[skip:]...)}
	if msg := checkResume(straight, resumed); msg != "" {
		t.Fatalf("exact tail rejected: %s", msg)
	}
	resumed.Windows[1].Mispredicts++
	if checkResume(straight, resumed) == "" {
		t.Error("a differing window was accepted")
	}
	resumed.Windows[1].Mispredicts--
	resumed.Branches++
	if checkResume(straight, resumed) == "" {
		t.Error("a wrong branch count was accepted")
	}
}

// The whole run on the canonical seed passes its digest, and the
// traced run reports every per-layer metric.
func TestRunWorkloadCanonicalSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full table-sweep round")
	}
	def, _ := workloadByName("table-sweep")
	ctx := context.Background()
	res, err := runWorkload(ctx, def, 0, time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced: %+v", res)
	}
	res, err = runWorkload(ctx, def, 0, time.Nanosecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer()) {
		t.Fatalf("traced: correct %v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer()))
	}
	for _, m := range []string{"host.ref_kernel_ns", "sim.run.floor_ns_per_branch", "workload.drain_ns_per_record"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("floor %s = %v", m, res.Metrics[m].Value)
		}
	}
}
