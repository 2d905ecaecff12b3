package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"bfbp"
	"bfbp/internal/experiments"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// workloadDef is one named benchmark workload: a predictor × trace
// matrix, its trace length, and whether traces are streamed from the
// generator or replayed from trace files with the observers on.
type workloadDef struct {
	name     string
	preds    []sim.PredictorSpec
	traces   []string // nil means all 40 traces
	branches int
	replay   bool
}

// The replay-observed geometry. Checkpoints land on record-batch
// boundaries (4096 records), so every length below is a multiple of
// one batch: the resume point is then both a checkpoint and a window
// boundary, and the resumed run's window series must equal the tail of
// the straight run's series exactly.
const (
	replayBatch      = 4096
	replayBranches   = 20 * replayBatch
	replayWarmup     = 2 * replayBatch
	replayWindow     = replayBatch
	replayCkptEvery  = 4 * replayBatch
	replayResumeAt   = 12 * replayBatch
	replayProbeEvery = 8 * replayBatch
)

func registrySpecs(names ...string) []sim.PredictorSpec {
	out := make([]sim.PredictorSpec, len(names))
	for i, n := range names {
		info, err := bfbp.PredictorByName(n)
		if err != nil {
			panic(err) // the names below are fixed; a miss is a bug
		}
		out[i] = info.Spec()
	}
	return out
}

// workloadDefs lists the benchmark's workloads. BENCHMARK.json and
// perfbench/LAYERS.md record why each was chosen.
func workloadDefs() []workloadDef {
	return []workloadDef{
		{
			// The paper's headline predictors: core work dominates.
			name:     "flagship-suite",
			preds:    append(experiments.SuitePredictors(), registrySpecs("isl-tage-15", "bf-tage-10")...),
			traces:   []string{"SPEC03", "FP2", "INT3", "MM2", "SERV1"},
			branches: 120_000,
		},
		{
			// Cheap table predictors over every trace: synthesis, the
			// harness and engine scheduling dominate.
			name:     "table-sweep",
			preds:    registrySpecs("static-taken", "bimodal", "gshare", "local", "tournament", "yags", "filter"),
			branches: 100_000,
		},
		{
			// Trace-file replay with every observer on, plus
			// checkpoint saves and a resume leg.
			name:     "replay-observed",
			preds:    registrySpecs("gshare", "isl-tage-15", "bf-tage-10"),
			traces:   []string{"SPEC07", "FP1", "INT2", "MM3", "SERV2"},
			branches: replayBranches,
			replay:   true,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs() {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// seededSpecs resolves a workload's traces and applies the seed; seed 0
// leaves every spec canonical.
func seededSpecs(def workloadDef, seed uint64) ([]workload.Spec, error) {
	if def.traces == nil {
		specs := workload.Traces()
		for i := range specs {
			specs[i] = specs[i].Reseed(seed)
		}
		return specs, nil
	}
	specs := make([]workload.Spec, len(def.traces))
	for i, n := range def.traces {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("perfbench: unknown trace %q", n)
		}
		specs[i] = s.Reseed(seed)
	}
	return specs, nil
}

// bench is one workload instantiated for one seed.
type bench struct {
	def     workloadDef
	specs   []workload.Spec
	workers int
	dir     string // replay only: where the trace files are written
}

func newBench(def workloadDef, seed uint64, workers int) (*bench, error) {
	specs, err := seededSpecs(def, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{def: def, specs: specs, workers: workers}
	if def.replay {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		if b.dir, err = os.MkdirTemp(".bench_build", "replay-"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *bench) close() error {
	if b.dir == "" {
		return nil
	}
	return os.RemoveAll(b.dir)
}

// generatorSources are the streaming generator sources of the
// workload's traces.
func (b *bench) generatorSources() []sim.TraceSource {
	out := make([]sim.TraceSource, len(b.specs))
	for i, s := range b.specs {
		out[i] = s.Source(b.def.branches)
	}
	return out
}

// cellSource opens one cell's reader. In a traced round it puts a
// timing reader directly over the generator or file reader and keeps
// it, so the round can read back the layer's time.
type cellSource struct {
	sim.TraceSource
	traced bool
	skip   int
	rd     *timedReader
	openNS time.Duration
}

func (s *cellSource) Open() trace.Reader {
	t0 := time.Now()
	r := s.TraceSource.Open()
	if s.traced {
		s.rd = newTimedReader(r)
		r = s.rd
	}
	r = trace.Skip(r, s.skip)
	s.openNS = time.Since(t0)
	return r
}

// fileSource replays a trace file. The round closes every file it
// opened once its engine run returns.
type fileSource struct {
	name, path string
	files      *openFiles
}

func (f fileSource) Name() string { return f.name }

func (f fileSource) Open() trace.Reader {
	fh, err := os.Open(f.path)
	if err != nil {
		return trace.Func(func() (trace.Record, error) { return trace.Record{}, err })
	}
	f.files.add(fh)
	return trace.NewFileReader(fh)
}

type openFiles struct {
	mu    sync.Mutex
	files []*os.File
}

func (o *openFiles) add(f *os.File) {
	o.mu.Lock()
	o.files = append(o.files, f)
	o.mu.Unlock()
}

// closeAll closes the files; they were only read, so Close errors are
// of no consequence.
func (o *openFiles) closeAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, f := range o.files {
		f.Close()
	}
	o.files = nil
}

// stateSlot collects one replay cell's checkpoint saves.
type stateSlot struct {
	buf       bytes.Buffer
	saves     int
	savedB    int
	saveNS    time.Duration
	img       []byte // the image saved at replayResumeAt
	imgBranch uint64
}

// cell is one (trace, predictor) run of a round.
type cell struct {
	trace, pred string
	p           sim.Predictor
	tp          *timedPredictor // traced rounds only
	src         *cellSource
	opt         *sim.Options

	// replay-observed only: the resume leg's fresh instance and source.
	slot      *stateSlot
	resumeP   sim.Predictor
	resumeTP  *timedPredictor
	resumeSrc *cellSource
}

// round is one set-up copy of the workload, ready to run once.
type round struct {
	traced bool
	cells  []*cell
	dir    string // replay-observed only: this round's trace files
	files  openFiles
	// encoding work of the set-up (replay-observed only)
	encodeNS     time.Duration
	encodedRecs  uint64
	encodedBytes int64
}

// setup prepares one round: it writes the trace files (replay only)
// and constructs every predictor. It is the set-up that setup_s times.
func (b *bench) setup(traced bool) (*round, error) {
	r := &round{traced: traced}
	var srcs []sim.TraceSource
	if b.def.replay {
		// Each round writes into a fresh directory: rewriting the last
		// round's files would make the set-up wait on their writeback.
		var err error
		if r.dir, err = os.MkdirTemp(b.dir, "round-"); err != nil {
			return nil, err
		}
		for _, s := range b.specs {
			path := filepath.Join(r.dir, s.Name+".bft")
			if err := r.writeTrace(path, s); err != nil {
				return nil, err
			}
			srcs = append(srcs, fileSource{name: s.Name, path: path, files: &r.files})
		}
	} else {
		srcs = b.generatorSources()
	}
	for ti, s := range b.specs {
		var shared *sim.Options
		if !b.def.replay {
			warm := uint64(b.def.branches / 10)
			shared = &sim.Options{Warmup: warm, Window: (uint64(b.def.branches) - warm) / 20}
		}
		for _, ps := range b.def.preds {
			c := &cell{trace: s.Name, pred: ps.Name, src: &cellSource{TraceSource: srcs[ti], traced: traced}, opt: shared}
			var err error
			if c.p, c.tp, err = newPredictor(ps, traced); err != nil {
				return nil, err
			}
			if b.def.replay {
				c.slot = &stateSlot{}
				c.opt = replayOptions(c.slot)
				if c.resumeP, c.resumeTP, err = newPredictor(ps, traced); err != nil {
					return nil, err
				}
				c.resumeSrc = &cellSource{TraceSource: srcs[ti], traced: traced, skip: replayResumeAt}
			}
			r.cells = append(r.cells, c)
		}
	}
	return r, nil
}

// close removes the round's trace files.
func (r *round) close() error {
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}

func newPredictor(ps sim.PredictorSpec, traced bool) (sim.Predictor, *timedPredictor, error) {
	p := ps.New()
	if !traced {
		return p, nil, nil
	}
	return wrapPredictor(p)
}

// writeTrace synthesises exactly replayBranches records of s and
// encodes them to a trace file, timing the encoder separately from
// synthesis.
func (r *round) writeTrace(path string, s workload.Spec) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := trace.NewWriter(f)
	src := trace.Batched(trace.Limit(s.Stream(replayBranches), replayBranches))
	buf := make([]trace.Record, replayBatch)
	for {
		n, err := src.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, rec := range buf[:n] {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		r.encodeNS += time.Since(t0)
		r.encodedRecs += uint64(n)
	}
	t0 := time.Now()
	if err := w.Flush(); err != nil {
		return err
	}
	r.encodeNS += time.Since(t0)
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	r.encodedBytes += fi.Size()
	return nil
}

// replayOptions turns on every observer the harness has: windows,
// per-PC attribution, decision provenance, state probes and
// checkpoint saves.
func replayOptions(slot *stateSlot) *sim.Options {
	return &sim.Options{
		Warmup:          replayWarmup,
		Window:          replayWindow,
		PerPC:           true,
		Explain:         true,
		ProbeStateEvery: replayProbeEvery,
		ProbeState:      func(sim.TableStats, uint64) {},
		CheckpointEvery: replayCkptEvery,
		CheckpointFn: func(p sim.Predictor, branches uint64) error {
			snap, ok := p.(sim.Snapshotter)
			if !ok {
				return fmt.Errorf("%s cannot save state", p.Name())
			}
			slot.buf.Reset()
			t0 := time.Now()
			err := snap.SaveState(&slot.buf)
			slot.saveNS += time.Since(t0)
			slot.saves++
			slot.savedB += slot.buf.Len()
			if err == nil && branches == replayResumeAt {
				slot.img = append(slot.img[:0], slot.buf.Bytes()...)
				slot.imgBranch = branches
			}
			return err
		},
	}
}

// resumeOptions are replayOptions without warmup or checkpoints: the
// resumed run starts past the warmup, on a window boundary.
func resumeOptions() *sim.Options {
	return &sim.Options{
		Window:          replayWindow,
		PerPC:           true,
		Explain:         true,
		ProbeStateEvery: replayProbeEvery,
		ProbeState:      func(sim.TableStats, uint64) {},
	}
}

// engineRun is the schedule of one sim.Engine.Run call.
type engineRun struct {
	cells []interval
	wall  time.Duration
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap is the heap marked live by the most recent GC.
func liveHeap() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}

func (b *bench) runEngine(ctx context.Context, jobs []sim.Job, peak *uint64) ([]sim.RunResult, engineRun, error) {
	var er engineRun
	start := time.Now()
	eng := sim.Engine{
		Workers: b.workers,
		// Progress events arrive serially, right after each cell.
		Progress: func(ev sim.ProgressEvent) {
			end := time.Since(start)
			er.cells = append(er.cells, interval{end - ev.Elapsed, end})
			*peak = max(*peak, liveHeap())
		},
	}
	res, err := eng.Run(ctx, jobs)
	er.wall = time.Since(start)
	return res, er, err
}

// roundResult is what one round measured and found.
type roundResult struct {
	wall      time.Duration
	branches  uint64
	peakHeap  uint64
	cells     []digestLine // straight cells, in job order
	attempted int
	failed    map[int]string // straight cell index → reason
	layers    map[string]float64
}

func (rr *roundResult) fail(i int, format string, args ...any) {
	if _, ok := rr.failed[i]; !ok {
		rr.failed[i] = fmt.Sprintf(format, args...)
	}
}

// run executes a set-up round: the straight matrix, then (replay only)
// the resume legs.
func (b *bench) run(ctx context.Context, r *round) roundResult {
	rr := roundResult{failed: map[int]string{}}
	start := time.Now()
	jobs := make([]sim.Job, len(r.cells))
	for i, c := range r.cells {
		jobs[i] = sim.Job{Predictor: fixedSpec(c.pred, c.p), Source: c.src, Options: c.opt}
	}
	res, er, err := b.runEngine(ctx, jobs, &rr.peakHeap)
	r.files.closeAll()
	runs := []engineRun{er}
	rr.attempted = len(r.cells)
	rr.cells = make([]digestLine, len(r.cells))
	for i, c := range r.cells {
		rr.cells[i] = digestLine{Trace: c.trace, Predictor: c.pred}
		if err != nil {
			rr.fail(i, "engine: %v", err)
			continue
		}
		st := res[i].Stats
		rr.cells[i].counters = counters{st.Branches, st.Mispredicts, st.Instructions}
		rr.branches += st.Branches
	}
	var resumed []sim.RunResult
	var resumeIdx []int
	var loadNS time.Duration
	if b.def.replay && err == nil {
		var rjobs []sim.Job
		for i, c := range r.cells {
			if c.slot.imgBranch != replayResumeAt {
				rr.fail(i, "no checkpoint at branch %d", replayResumeAt)
				continue
			}
			t0 := time.Now()
			lerr := c.resumeP.(sim.Snapshotter).LoadState(bytes.NewReader(c.slot.img))
			loadNS += time.Since(t0)
			if lerr != nil {
				rr.fail(i, "LoadState: %v", lerr)
				continue
			}
			resumeIdx = append(resumeIdx, i)
			rjobs = append(rjobs, sim.Job{Predictor: fixedSpec(c.pred, c.resumeP), Source: c.resumeSrc, Options: resumeOptions()})
		}
		rr.attempted += len(rjobs)
		var rer engineRun
		var rerr error
		resumed, rer, rerr = b.runEngine(ctx, rjobs, &rr.peakHeap)
		r.files.closeAll()
		runs = append(runs, rer)
		for k, i := range resumeIdx {
			if rerr != nil {
				rr.fail(i, "resume engine: %v", rerr)
				continue
			}
			rr.branches += resumed[k].Stats.Branches
			if msg := checkResume(res[i].Stats, resumed[k].Stats); msg != "" {
				rr.fail(i, "resume: %s", msg)
			}
		}
		if rerr != nil {
			resumeIdx = nil // nothing ran to account for
		}
	}
	rr.wall = time.Since(start)
	if err == nil {
		b.checkBranchCounts(&rr)
	}
	if r.traced && err == nil {
		rr.layers = b.layerMetrics(r, res, resumed, resumeIdx, runs, loadNS)
	}
	return rr
}

// fixedSpec hands the engine an already constructed predictor, so
// construction stays in the set-up.
func fixedSpec(name string, p sim.Predictor) sim.PredictorSpec {
	return sim.PredictorSpec{Name: name, New: func() sim.Predictor { return p }}
}

// checkResume compares a resumed run against the straight run it was
// resumed from: the branch count must be the tail length, and the
// window series must equal the straight run's tail exactly.
func checkResume(straight, resumed sim.Stats) string {
	tail := uint64(replayBranches - replayResumeAt)
	if resumed.Branches != tail {
		return fmt.Sprintf("%d branches, want %d", resumed.Branches, tail)
	}
	skip := (replayResumeAt - replayWarmup) / replayWindow
	if len(straight.Windows) < skip {
		return fmt.Sprintf("straight run has %d windows, want at least %d", len(straight.Windows), skip)
	}
	want := straight.Windows[skip:]
	if len(resumed.Windows) != len(want) {
		return fmt.Sprintf("%d windows, want %d", len(resumed.Windows), len(want))
	}
	for i := range want {
		if resumed.Windows[i] != want[i] {
			return fmt.Sprintf("window %d is %+v, straight run has %+v", skip+i, resumed.Windows[i], want[i])
		}
	}
	return ""
}

// checkBranchCounts fails cells whose branch count is wrong: replayed
// traces hold exactly replayBranches records; a streamed trace yields
// at least the requested count, and the same count to every predictor.
func (b *bench) checkBranchCounts(rr *roundResult) {
	first := map[string]uint64{}
	for i, c := range rr.cells {
		if _, failed := rr.failed[i]; failed {
			continue
		}
		switch {
		case b.def.replay && c.Branches != replayBranches:
			rr.fail(i, "%d branches, want %d", c.Branches, replayBranches)
		case c.Branches < uint64(b.def.branches):
			rr.fail(i, "%d branches, want at least %d", c.Branches, b.def.branches)
		}
		if n, ok := first[c.Trace]; !ok {
			first[c.Trace] = c.Branches
		} else if n != c.Branches {
			rr.fail(i, "%d branches, other predictors on %s saw %d", c.Branches, c.Trace, n)
		}
	}
}

// layerMetrics turns a traced round's timing wrappers and schedule into
// the per-layer metrics.
func (b *bench) layerMetrics(r *round, res, resumed []sim.RunResult, resumeIdx []int, runs []engineRun, loadNS time.Duration) map[string]float64 {
	m := map[string]float64{}
	var (
		readNS, self               time.Duration
		records, branches, batched uint64
		saves, saveBytes           int
		saveNS                     time.Duration
		predBusy                   = map[string]time.Duration{}
		predBranches               = map[string]uint64{}
	)
	account := func(pred string, span time.Duration, st sim.Stats, tp *timedPredictor, src *cellSource, extra time.Duration) {
		var rd time.Duration
		if src.rd != nil {
			rd = time.Duration(src.rd.ns)
			records += src.rd.records
		}
		readNS += rd
		busy := tp.busy()
		predBusy[pred] += busy
		predBranches[pred] += st.Branches
		branches += st.Branches
		batched += tp.batched
		self += selfTime(span, src.openNS, rd, busy, extra)
	}
	for i, c := range r.cells {
		var ckpt time.Duration
		if c.slot != nil {
			ckpt = c.slot.saveNS
			saves += c.slot.saves
			saveBytes += c.slot.savedB
			saveNS += c.slot.saveNS
		}
		account(c.pred, res[i].Elapsed, res[i].Stats, c.tp, c.src, ckpt)
	}
	for k, i := range resumeIdx {
		c := r.cells[i]
		account(c.pred, resumed[k].Elapsed, resumed[k].Stats, c.resumeTP, c.resumeSrc, 0)
	}
	perRecord := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	if b.def.replay {
		m["trace.encode_ns_per_record"] = perRecord(r.encodeNS, r.encodedRecs)
		m["trace.decode_busy_s"] = readNS.Seconds()
		m["trace.decode_ns_per_record"] = perRecord(readNS, records)
		m["trace.bytes_per_record"] = float64(r.encodedBytes) / float64(r.encodedRecs)
		m["state.saves"] = float64(saves)
		if saves > 0 {
			m["state.bytes_per_save"] = float64(saveBytes) / float64(saves)
		}
		m["state.save_busy_s"] = saveNS.Seconds()
		m["state.load_busy_s"] = loadNS.Seconds()
	} else {
		m["workload.records"] = float64(records)
		m["workload.busy_s"] = readNS.Seconds()
		m["workload.ns_per_record"] = perRecord(readNS, records)
	}
	m["sim.run.self_s"] = self.Seconds()
	m["sim.run.self_ns_per_branch"] = perRecord(self, branches)
	if branches > 0 {
		m["sim.run.batched_frac"] = float64(batched) / float64(branches)
	}
	for p, d := range predBusy {
		m["pred."+p+".busy_s"] = d.Seconds()
		m["pred."+p+".ns_per_branch"] = perRecord(d, predBranches[p])
	}
	var cells []interval
	var wall, tail time.Duration
	for _, er := range runs {
		cells = append(cells, er.cells...)
		tail += tailTime(er.cells, b.workers, er.wall)
		wall += er.wall
	}
	m["sim.engine.cells"] = float64(len(cells))
	m["sim.engine.workers"] = float64(b.workers)
	m["sim.engine.busy_frac"] = busyFrac(cells, b.workers, wall)
	m["sim.engine.tail_s"] = tail.Seconds()
	return m
}

// floorMetrics runs the isolated floors of the traced run.
func (b *bench) floorMetrics(ctx context.Context) (map[string]float64, error) {
	m := map[string]float64{"host.ref_kernel_ns": refKernelNS()}
	drain, err := drainNSPerRecord(b.generatorSources())
	if err != nil {
		return nil, err
	}
	m["workload.drain_ns_per_record"] = drain
	recs, err := trace.Collect(trace.Limit(b.specs[0].Stream(b.def.branches), uint64(b.def.branches)))
	if err != nil {
		return nil, err
	}
	floor, err := harnessFloorNSPerBranch(ctx, recs, sim.Options{Warmup: uint64(len(recs) / 10)})
	if err != nil {
		return nil, err
	}
	m["sim.run.floor_ns_per_branch"] = floor
	return m, nil
}
