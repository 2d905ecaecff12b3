// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public entry points — generator
// sources from workload.Spec.Reseed(seed).Source, trace files through
// trace.NewWriter and trace.NewFileReader, sim.Engine.Run over
// sim.RunContext, and sim.Snapshotter checkpoints — on one engine
// worker per CPU, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload flagship-suite --seed 0 --seconds 30 --trace 0
//
// Each round sets the workload up (predictor construction and, for
// replay-observed, writing the trace files), then runs its matrix; the
// run repeats rounds for --seconds and reports medians over rounds.
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced rounds with traced rounds, whose readers and
// predictors are wrapped in timing wrappers, runs the isolated floors,
// and reports the per-layer metrics. Every run checks the simulated
// counters: against the committed digest on seed 0, across rounds, and
// (replay-observed) between each resume leg and its straight run.
// perfbench/LAYERS.md maps each layer metric to the end-to-end metric
// it moves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runTimeout bounds a whole run, well inside the 180 s a run may take.
const runTimeout = 170 * time.Second

// Set-up repetition: see runWorkload.
const (
	setupRepeatBelow = 20 * time.Millisecond
	maxSetupReps     = 8
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"branches_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"mpki.mean", "MPKI"},
}

// perLayer lists the per-layer metrics of the traced run. A workload
// that does not exercise a layer reports 0 for it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.records", "count"},
		{"workload.busy_s", "s"},
		{"workload.ns_per_record", "ns"},
		{"workload.drain_ns_per_record", "ns"},
		{"trace.encode_ns_per_record", "ns"},
		{"trace.decode_busy_s", "s"},
		{"trace.decode_ns_per_record", "ns"},
		{"trace.bytes_per_record", "B"},
		{"sim.run.self_s", "s"},
		{"sim.run.self_ns_per_branch", "ns"},
		{"sim.run.batched_frac", "frac"},
		{"sim.run.floor_ns_per_branch", "ns"},
	}
	seen := map[string]bool{}
	for _, w := range workloadDefs() {
		for _, p := range w.preds {
			if !seen[p.Name] {
				seen[p.Name] = true
				defs = append(defs, metricDef{"pred." + p.Name + ".busy_s", "s"}, metricDef{"pred." + p.Name + ".ns_per_branch", "ns"})
			}
		}
	}
	return append(defs,
		metricDef{"state.saves", "count"},
		metricDef{"state.bytes_per_save", "B"},
		metricDef{"state.save_busy_s", "s"},
		metricDef{"state.load_busy_s", "s"},
		metricDef{"sim.engine.cells", "count"},
		metricDef{"sim.engine.workers", "count"},
		metricDef{"sim.engine.busy_frac", "frac"},
		metricDef{"sim.engine.tail_s", "s"},
		metricDef{"bench.trace_overhead_frac", "frac"},
		metricDef{"host.ref_kernel_ns", "ns"},
	)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name        = flag.String("workload", "", "workload name: flagship-suite, table-sweep or replay-observed")
		seed        = flag.Uint64("seed", 0, "workload seed; 0 is the canonical trace set")
		seconds     = flag.Float64("seconds", 30, "how long to repeat rounds")
		traced      = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		writeDigest = flag.String("write-digest", "", "run one seed-0 round and write its digest into this directory")
	)
	flag.Parse()
	def, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload flagship-suite|table-sweep|replay-observed, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if *writeDigest != "" {
		if err := regenerateDigest(ctx, def, *writeDigest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(ctx, def, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runWorkload repeats rounds of def for the given time and reduces them
// to the reported metrics. Errors are set-up failures, which leave
// nothing to report; a cell that fails is counted in the result.
func runWorkload(ctx context.Context, def workloadDef, seed uint64, budget time.Duration, traced bool) (res result, err error) {
	b, err := newBench(def, seed, runtime.NumCPU())
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	// Seed 0 is the canonical trace set, whose cells the committed
	// digest pins.
	var want []digestLine
	checkDigest := seed == 0
	if checkDigest {
		if want, err = loadDigest(def.name); err != nil {
			return res, fmt.Errorf("canonical digest: %w", err)
		}
	}
	var (
		ref                       []digestLine
		setups, walls, rates, mbs []float64
		tracedWalls               []float64
		layers                    = map[string][]float64{}
	)
	failedCells := map[int]bool{}
	start := time.Now()
	for i := 0; ; i++ {
		tracedRound := traced && i%2 == 1
		// Collect the previous round's garbage before timing the set-up,
		// and the set-up's before timing the run, so that neither phase
		// pays for collecting the other's. A set-up shorter than
		// setupRepeatBelow is repeated, keeping the last copy, so that a
		// few-millisecond set-up still yields enough samples for a
		// steady median.
		var (
			r        *round
			setupDur time.Duration
		)
		for rep := 0; rep < maxSetupReps && (rep == 0 || setupDur < setupRepeatBelow); rep++ {
			if r != nil {
				if err := r.close(); err != nil {
					return res, err
				}
			}
			runtime.GC()
			t0 := time.Now()
			if r, err = b.setup(tracedRound); err != nil {
				return res, fmt.Errorf("set-up: %w", err)
			}
			d := time.Since(t0)
			setupDur += d
			if !tracedRound {
				setups = append(setups, d.Seconds())
			}
		}
		runtime.GC()
		rr := b.run(ctx, r)
		if err := r.close(); err != nil {
			return res, err
		}
		if ref == nil && len(rr.failed) == 0 {
			ref = rr.cells
			if checkDigest {
				bad, missing := compareDigest(want, ref)
				for j, msg := range bad {
					rr.fail(j, "digest: %s", msg)
				}
				if len(missing) > 0 {
					rr.fail(0, "digest: cells not run: %v", missing)
				}
			}
		} else if ref != nil {
			for j, c := range rr.cells {
				if c != ref[j] {
					rr.fail(j, "counters %+v differ from round 0 %+v", c.counters, ref[j].counters)
				}
			}
		}
		res.Attempted += rr.attempted
		res.Failed += len(rr.failed)
		for j, msg := range rr.failed {
			if !failedCells[j] {
				failedCells[j] = true
				fmt.Fprintf(os.Stderr, "perfbench: round %d: cell %s/%s failed: %s\n", i, rr.cells[j].Trace, rr.cells[j].Predictor, msg)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%v setup %.4fs wall %.4fs %d branches\n",
			def.name, i, tracedRound, setupDur.Seconds(), rr.wall.Seconds(), rr.branches)
		if tracedRound {
			tracedWalls = append(tracedWalls, rr.wall.Seconds())
			for k, v := range rr.layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			walls = append(walls, rr.wall.Seconds())
			rates = append(rates, float64(rr.branches)/rr.wall.Seconds())
			mbs = append(mbs, float64(rr.peakHeap)/1e6)
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if time.Since(start) >= budget && (!traced || i >= 1) {
			break
		}
	}
	res.Correct = res.Failed == 0 && ref != nil
	res.Metrics = map[string]metricValue{}
	if !traced {
		vals := map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         median(walls),
			"branches_per_s": median(rates),
			"peak_heap_mb":   median(mbs),
			"mpki.mean":      meanMPKI(ref),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		printSummary(def.name, res)
		return res, nil
	}
	// Run-level values: the floors and the tracing overhead.
	once, err := b.floorMetrics(ctx)
	if err != nil {
		return res, fmt.Errorf("floors: %w", err)
	}
	once["bench.trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1
	for _, d := range perLayer() {
		v := 0.0
		if xs, ok := layers[d.name]; ok {
			v = median(xs)
		}
		if f, ok := once[d.name]; ok {
			v = f
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	printSummary(def.name, res)
	return res, nil
}

// meanMPKI is the mean over cells of each cell's MPKI.
func meanMPKI(cells []digestLine) float64 {
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		if c.Instructions > 0 {
			sum += float64(c.Mispredicts) * 1000 / float64(c.Instructions)
		}
	}
	return sum / float64(len(cells))
}

// printSummary writes a readable table to standard error, including
// failed_frac, which the JSON carries as attempted and failed.
func printSummary(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", workload)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-36s %16.6g %s (%d of %d cells)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "frac", res.Failed, res.Attempted)
}

// regenerateDigest runs one untraced seed-0 round and writes its cell
// counters as the workload's digest.
func regenerateDigest(ctx context.Context, def workloadDef, dir string) (err error) {
	b, err := newBench(def, 0, runtime.NumCPU())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	r, err := b.setup(false)
	if err != nil {
		return err
	}
	rr := b.run(ctx, r)
	if err := r.close(); err != nil {
		return err
	}
	if len(rr.failed) > 0 {
		return errors.New("round failed; digest not written")
	}
	return os.WriteFile(filepath.Join(dir, def.name+".txt"), []byte(formatDigest(def.name, rr.cells)), 0o644)
}
