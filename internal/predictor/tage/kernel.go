package tage

import (
	"fmt"
	"math/bits"

	"bfbp/internal/looppred"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

const (
	ctrMax = 3 // 3-bit signed prediction counter [-4, 3]
	ctrMin = -4
	scMax  = 31 // 6-bit statistical corrector counter [-32, 31]
	scMin  = -32
)

// KeyFunc computes every tagged table's index and tag for pc from a
// family's history. It is what distinguishes conventional TAGE (raw GHR)
// from BF-TAGE (bias-free GHR); the kernel calls it only off the hot
// path, where the family has not already filled the keys itself.
type KeyFunc func(pc uint64, idx, tag []uint32)

// table is one tagged bank in structure-of-arrays layout: tags, counters,
// and useful bits live in parallel dense arrays instead of a fat entry
// struct, so the provider scan touches 2 bytes per probe, the useful-bit
// reset is a word-wise clear, and each array stays cache-line packed.
type table struct {
	cfg     TableConfig
	tags    []uint16
	ctrs    []int8
	useful  []uint64 // bitset, entry i at word i/64 bit i%64
	mask    uint64
	tagMask uint32

	// Occupancy accounting for StateProbe, maintained on the rare
	// allocate path only: alloc marks indices that have ever been
	// installed, live counts them, and evictions counts installs that
	// displaced a previously allocated entry (tag conflicts). Pure
	// observation — never serialised, never read by prediction.
	alloc     []uint64
	live      int
	allocs    uint64
	evictions uint64
}

// u reads entry i's useful bit.
func (t *table) u(i uint32) bool { return t.useful[i>>6]>>(i&63)&1 != 0 }

// setU writes entry i's useful bit.
func (t *table) setU(i uint32, b bool) {
	m := uint64(1) << (i & 63)
	if b {
		t.useful[i>>6] |= m
	} else {
		t.useful[i>>6] &^= m
	}
}

// checkpoint captures everything a prediction computed so its update
// trains exactly that state (correct under delayed update).
type checkpoint struct {
	pc          uint64
	idx         []uint32
	tag         []uint32
	provider    int // -1 = base
	alt         int // -1 = base
	newlyAlloc  bool
	basePred    bool
	baseIdx     uint32
	provPred    bool
	altPred     bool
	tagePred    bool // after alt-on-NA selection
	scSum       int32
	scIdx       uint32
	scApplied   bool
	loopPred    bool
	loopValid   bool
	loopApplied bool
	finalPred   bool
}

// Kernel is the TAGE / ISL-TAGE machinery shared by conventional TAGE
// and BF-TAGE: tagged tables, base bimodal, provider/alternate lookup,
// the ISL components (statistical corrector, immediate update mimicker,
// loop predictor), training, allocation, the in-flight checkpoint FIFO,
// and the shared snapshot sections. A predictor family embeds it and
// supplies only its history: how indices and tags are hashed (a KeyFunc)
// and how a resolved branch enters the history.
//
// The per-branch protocol a family follows is
//
//	Predict: idx, tag := k.Keys(); fill them; return k.Issue(pc, idx, tag)
//	Update:  k.Resolve(pc, taken, keys); retire pc into the history
//	Batch:   idx, tag := k.Scratch(); per record fill, k.Step, retire
type Kernel struct {
	cfg    Config
	name   string
	family string // error/panic prefix
	tables []table

	// Base bimodal: 1 prediction bit per entry, 1 hysteresis bit shared
	// by 4 entries (Table I's 2560-byte T0 at 16K entries).
	basePred []bool
	baseHyst []bool
	baseMask uint64

	useAltOnNA int32 // 4-bit counter, >= 8 prefers alt on newly allocated
	tick       int
	r          *rng.SplitMix64

	loop     *looppred.Predictor
	withLoop int32 // 7-bit signed: trust the loop predictor when >= 0

	sc     []int8 // statistical corrector counters (6-bit semantics)
	scMask uint64

	// pending is an in-order FIFO of in-flight checkpoints: live entries
	// are pending[pendStart:]; popped slots are compacted away lazily so
	// steady-state operation never reallocates.
	pending   []checkpoint
	pendStart int
	// slicePool recycles checkpoint idx/tag slices once their branch
	// commits, so Predict stops hitting growslice on every branch.
	slicePool [][]uint32
	// batchIdx / batchTag are the fused batch step's scratch index/tag
	// arrays: Step consumes each checkpoint immediately, so it never goes
	// through the FIFO or the slice pool.
	batchIdx []uint32
	batchTag []uint32

	providerHits []uint64
}

// NewKernel validates cfg, applies its defaults in place (PathBits 16,
// UResetPeriod 2^18) and returns an empty kernel. family prefixes panics
// and errors; defaultName is reported when cfg.Name is empty.
func NewKernel(cfg *Config, family, defaultName string) Kernel {
	if len(cfg.Tables) == 0 {
		panic(family + ": need at least one tagged table")
	}
	if cfg.BaseLogEntries < 4 || cfg.BaseLogEntries > 24 {
		panic(family + ": BaseLogEntries out of range")
	}
	if cfg.PathBits <= 0 {
		cfg.PathBits = 16
	}
	if cfg.UResetPeriod == 0 {
		cfg.UResetPeriod = 1 << 18
	}
	k := Kernel{
		cfg:          *cfg,
		name:         cfg.Name,
		family:       family,
		basePred:     make([]bool, 1<<cfg.BaseLogEntries),
		baseHyst:     make([]bool, 1<<(cfg.BaseLogEntries-2)),
		baseMask:     uint64(1<<cfg.BaseLogEntries - 1),
		useAltOnNA:   8,
		r:            rng.New(cfg.Seed | 1),
		batchIdx:     make([]uint32, len(cfg.Tables)),
		batchTag:     make([]uint32, len(cfg.Tables)),
		providerHits: make([]uint64, len(cfg.Tables)+1),
	}
	if k.name == "" {
		k.name = defaultName
	}
	prev := 0
	for _, tc := range cfg.Tables {
		if tc.HistLen <= prev {
			panic(family + ": history lengths must be strictly increasing")
		}
		prev = tc.HistLen
		if tc.LogEntries < 4 || tc.LogEntries > 22 {
			panic(family + ": LogEntries out of range")
		}
		if tc.TagBits < 4 || tc.TagBits > 16 {
			panic(family + ": TagBits out of range")
		}
		n := 1 << tc.LogEntries
		k.tables = append(k.tables, table{
			cfg:     tc,
			tags:    make([]uint16, n),
			ctrs:    make([]int8, n),
			useful:  make([]uint64, (n+63)/64),
			mask:    uint64(n - 1),
			tagMask: uint32(1<<tc.TagBits - 1),
			alloc:   make([]uint64, (n+63)/64),
		})
	}
	if cfg.LoopPredictor {
		k.loop = looppred.NewDefault()
	}
	if cfg.StatisticalCorrector {
		k.sc = make([]int8, 1<<12)
		k.scMask = uint64(len(k.sc) - 1)
	}
	return k
}

// Name implements sim.Predictor.
func (k *Kernel) Name() string { return k.name }

// NumTables returns the tagged table count.
func (k *Kernel) NumTables() int { return len(k.tables) }

// Keys hands out an index/tag pair for a prediction that will go in
// flight: the family fills it, Issue takes it over, and Resolve returns
// it to the pool once the branch commits.
func (k *Kernel) Keys() (idx, tag []uint32) {
	n := len(k.tables)
	if m := len(k.slicePool); m >= 2 {
		idx, tag = k.slicePool[m-2][:n], k.slicePool[m-1][:n]
		k.slicePool = k.slicePool[:m-2]
		return idx, tag
	}
	return make([]uint32, n), make([]uint32, n)
}

// putSlices returns a retired checkpoint's slices to the pool.
func (k *Kernel) putSlices(cp *checkpoint) {
	if cp.idx != nil {
		k.slicePool = append(k.slicePool, cp.idx, cp.tag)
		cp.idx, cp.tag = nil, nil
	}
}

// Scratch returns the batch path's reusable index/tag arrays, for keys
// that Step consumes immediately.
func (k *Kernel) Scratch() (idx, tag []uint32) { return k.batchIdx, k.batchTag }

// InFlight reports whether a prediction is awaiting its update.
func (k *Kernel) InFlight() bool { return k.pendStart < len(k.pending) }

// Issue predicts pc from keys the family computed, and queues the
// checkpoint for Resolve.
func (k *Kernel) Issue(pc uint64, idx, tag []uint32) bool {
	cp := k.lookup(pc, idx, tag)
	k.decide(&cp)
	// Compact the FIFO's popped prefix before append would grow it.
	if len(k.pending) == cap(k.pending) && k.pendStart > 0 {
		n := copy(k.pending, k.pending[k.pendStart:])
		k.pending = k.pending[:n]
		k.pendStart = 0
	}
	k.pending = append(k.pending, cp)
	return cp.finalPred
}

// Resolve trains the oldest in-flight prediction with the outcome. A pc
// that was not predicted is looked up through keys and trained as is.
// The family retires the branch into its history afterwards.
func (k *Kernel) Resolve(pc uint64, taken bool, keys KeyFunc) {
	var cp checkpoint
	if k.InFlight() && k.pending[k.pendStart].pc == pc {
		cp = k.pending[k.pendStart]
		k.pendStart++
		if k.pendStart == len(k.pending) {
			k.pending = k.pending[:0]
			k.pendStart = 0
		}
	} else {
		cp = k.freshLookup(pc, keys)
	}
	k.train(&cp, taken)
	k.putSlices(&cp)
}

// Step runs one fused predict+update from keys in the Scratch arrays.
// Bit-exact with Issue+Resolve when nothing is in flight: the IUM scan
// in decide then never fires and Resolve would pop this very checkpoint.
func (k *Kernel) Step(pc uint64, idx, tag []uint32, taken bool) bool {
	cp := k.lookup(pc, idx, tag)
	k.decide(&cp)
	k.train(&cp, taken)
	return cp.finalPred
}

// freshLookup is a side-effect-free TAGE lookup with pooled keys, for
// branches that have no in-flight checkpoint.
func (k *Kernel) freshLookup(pc uint64, keys KeyFunc) checkpoint {
	idx, tag := k.Keys()
	keys(pc, idx, tag)
	cp := k.lookup(pc, idx, tag)
	cp.finalPred = cp.tagePred
	return cp
}

func (k *Kernel) lookup(pc uint64, idx, tag []uint32) checkpoint {
	cp := checkpoint{pc: pc, idx: idx, tag: tag, provider: -1, alt: -1}
	k.finishLookup(&cp)
	return cp
}

// finishLookup reads the base bimodal, scans the tagged tables for
// provider and alternate, and derives the TAGE prediction.
func (k *Kernel) finishLookup(cp *checkpoint) {
	cp.baseIdx = uint32((cp.pc >> 2) & k.baseMask)
	cp.basePred = k.basePred[cp.baseIdx]
	for i := len(k.tables) - 1; i >= 0; i-- {
		if uint32(k.tables[i].tags[cp.idx[i]]) == cp.tag[i] {
			if cp.provider < 0 {
				cp.provider = i
			} else {
				cp.alt = i
				break
			}
		}
	}
	if cp.provider < 0 {
		cp.altPred = cp.basePred
		cp.tagePred = cp.basePred
		return
	}
	t := &k.tables[cp.provider]
	e := cp.idx[cp.provider]
	ctr := t.ctrs[e]
	cp.provPred = ctr >= 0
	cp.newlyAlloc = !t.u(e) && isWeak(ctr)
	if cp.alt >= 0 {
		cp.altPred = k.tables[cp.alt].ctrs[cp.idx[cp.alt]] >= 0
	} else {
		cp.altPred = cp.basePred
	}
	if cp.newlyAlloc && k.useAltOnNA >= 8 {
		cp.tagePred = cp.altPred
	} else {
		cp.tagePred = cp.provPred
	}
}

// providerCtr is the provider entry's counter.
func (k *Kernel) providerCtr(cp *checkpoint) int8 {
	return k.tables[cp.provider].ctrs[cp.idx[cp.provider]]
}

// scIndex hashes the PC with the provider confidence class, following the
// ISL statistical corrector's idea of learning, per (branch, confidence),
// whether TAGE's prediction is statistically wrong.
func (k *Kernel) scIndex(cp *checkpoint) uint32 {
	conf := uint64(9)
	if cp.provider >= 0 {
		conf = uint64(int64(k.providerCtr(cp)) + 4)
	}
	dir := uint64(0)
	if cp.tagePred {
		dir = 1
	}
	return uint32(rng.Hash64((cp.pc>>2)<<5^conf<<1^dir) & k.scMask)
}

// decide derives the final prediction from the TAGE outcome and the ISL
// components (SC weak-override, IUM in-flight forwarding, loop override)
// and records provider attribution.
func (k *Kernel) decide(cp *checkpoint) {
	cp.finalPred = cp.tagePred

	// Statistical corrector: invert statistically-wrong low-confidence
	// predictions.
	if k.sc != nil {
		cp.scIdx = k.scIndex(cp)
		cp.scSum = int32(k.sc[cp.scIdx])
		weak := cp.provider < 0 || cp.newlyAlloc || isWeak(k.providerCtr(cp))
		if weak && cp.scSum <= -8 {
			cp.finalPred = !cp.tagePred
			cp.scApplied = true
		}
	}

	// Immediate update mimicker: if an in-flight (predicted, not yet
	// updated) branch used the same provider entry, forward its direction
	// — mimicking the update that entry is about to receive.
	if k.cfg.IUM && cp.provider >= 0 {
		for j := len(k.pending) - 1; j >= k.pendStart; j-- {
			q := &k.pending[j]
			if q.provider == cp.provider && q.idx[q.provider] == cp.idx[cp.provider] {
				cp.finalPred = q.finalPred
				break
			}
		}
	}

	// Loop predictor has the last word when trusted.
	if k.loop != nil {
		lp, lv := k.loop.Predict(cp.pc)
		cp.loopPred, cp.loopValid = lp, lv
		if lv && k.withLoop >= 0 {
			cp.finalPred = lp
			cp.loopApplied = true
		}
	}

	k.providerHits[cp.provider+1]++
}

func (k *Kernel) train(cp *checkpoint, taken bool) {
	// Loop predictor trains on every branch; allocation is gated by a
	// TAGE misprediction.
	if k.loop != nil {
		if cp.loopValid && cp.loopPred != cp.tagePred {
			k.withLoop = clamp32(k.withLoop+vote(cp.loopPred == taken), -64, 63)
		}
		k.loop.Update(cp.pc, taken, cp.tagePred != taken)
	}

	// Statistical corrector trains whenever it was consulted.
	if k.sc != nil {
		v := k.sc[cp.scIdx]
		if cp.tagePred == taken {
			if v < scMax {
				k.sc[cp.scIdx] = v + 1
			}
		} else if v > scMin {
			k.sc[cp.scIdx] = v - 1
		}
	}

	if cp.provider >= 0 && cp.newlyAlloc && cp.provPred != cp.altPred {
		k.useAltOnNA = clamp32(k.useAltOnNA+vote(cp.altPred == taken), 0, 15)
	}

	// Train the provider (or the base).
	if cp.provider >= 0 {
		t := &k.tables[cp.provider]
		e := cp.idx[cp.provider]
		t.ctrs[e] = satCtr(t.ctrs[e], taken)
		if cp.provPred != cp.altPred {
			t.setU(e, cp.provPred == taken)
		}
		// When the provider entry is still weak, keep the base warm too,
		// so evictions fall back gracefully.
		if !t.u(e) && isWeak(t.ctrs[e]) {
			k.baseUpdate(cp.baseIdx, taken)
		}
	} else {
		k.baseUpdate(cp.baseIdx, taken)
	}

	// Allocate on a TAGE misprediction (the pre-SC/loop decision governs
	// allocation, as in ISL-TAGE).
	if cp.tagePred != taken && cp.provider < len(k.tables)-1 {
		k.allocate(cp, taken)
	}

	// Periodic graceful reset of useful bits: a word-wise clear.
	k.tick++
	if k.tick >= k.cfg.UResetPeriod {
		k.tick = 0
		for i := range k.tables {
			clear(k.tables[i].useful)
		}
	}
}

func (k *Kernel) baseUpdate(idx uint32, taken bool) {
	hi := idx >> 2
	if k.basePred[idx] == taken {
		k.baseHyst[hi] = true
		return
	}
	if k.baseHyst[hi] {
		k.baseHyst[hi] = false
		return
	}
	k.basePred[idx] = taken
}

// allocate installs a new entry in a table with longer history than the
// provider, randomly skipping candidates to spread allocations across
// lengths.
func (k *Kernel) allocate(cp *checkpoint, taken bool) {
	start := cp.provider + 1
	// Random start skip: with probability 1/2 move one table up, twice.
	for s := 0; s < 2 && start < len(k.tables)-1; s++ {
		if k.r.Bool(0.5) {
			start++
		}
	}
	for i := start; i < len(k.tables); i++ {
		t := &k.tables[i]
		e := cp.idx[i]
		if !t.u(e) {
			w, b := e>>6, uint64(1)<<(e&63)
			if t.alloc[w]&b == 0 {
				t.alloc[w] |= b
				t.live++
			} else {
				t.evictions++
			}
			t.allocs++
			t.tags[e] = uint16(cp.tag[i])
			t.ctrs[e] = weakCtr(taken)
			t.setU(e, false)
			return
		}
	}
	// No free slot: age the candidates.
	for i := start; i < len(k.tables); i++ {
		k.tables[i].setU(cp.idx[i], false)
	}
}

func isWeak(ctr int8) bool { return ctr == 0 || ctr == -1 }

// weakCtr is a fresh entry's counter: weak toward the outcome.
func weakCtr(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func satCtr(c int8, taken bool) int8 {
	if taken {
		if c < ctrMax {
			return c + 1
		}
		return c
	}
	if c > ctrMin {
		return c - 1
	}
	return c
}

// vote is +1 for a correct component, -1 for a wrong one.
func vote(correct bool) int32 {
	if correct {
		return 1
	}
	return -1
}

func clamp32(v, lo, hi int32) int32 { return min(max(v, lo), hi) }

// TableHits implements sim.TableHitReporter: index 0 counts base-provided
// predictions, index i the i-th tagged table.
func (k *Kernel) TableHits() []uint64 {
	return append([]uint64(nil), k.providerHits...)
}

// ResetTableHits clears the provider histogram (useful after warmup).
func (k *Kernel) ResetTableHits() { clear(k.providerHits) }

// lastPending returns the newest in-flight checkpoint for pc, if any —
// the prediction Provenance should describe under delayed update.
func (k *Kernel) lastPending(pc uint64) (checkpoint, bool) {
	for j := len(k.pending) - 1; j >= k.pendStart; j-- {
		if k.pending[j].pc == pc {
			return k.pending[j], true
		}
	}
	return checkpoint{}, false
}

// Provenance is the shared part of sim.Explainer: the provenance of the
// newest in-flight prediction for pc (or of a fresh side-effect-free
// lookup through keys when none is pending) — provider/alt banks, the
// provider entry's counter and useful bit, and which component had the
// last word.
func (k *Kernel) Provenance(pc uint64, keys KeyFunc) sim.Provenance {
	cp, ok := k.lastPending(pc)
	if !ok {
		cp = k.freshLookup(pc, keys)
		// Not in flight, so its slices retire here (prov only copies
		// scalars out of it below).
		defer k.putSlices(&cp)
	}
	prov := sim.Provenance{
		Predictor:      k.name,
		Prediction:     cp.finalPred,
		Banks:          len(k.tables),
		Provider:       cp.provider,
		Alt:            cp.alt,
		ProviderPred:   cp.provPred,
		AltPred:        cp.altPred,
		NewlyAllocated: cp.newlyAlloc,
	}
	if cp.provider >= 0 {
		prov.ProviderCtr = k.providerCtr(&cp)
		prov.ProviderUseful = k.tables[cp.provider].u(cp.idx[cp.provider])
	}
	switch {
	case cp.loopApplied:
		prov.Component = "loop"
		// The loop predictor only overrides at full confidence.
		prov.Confidence = 7
	case cp.scApplied:
		prov.Component = "sc"
		prov.Confidence = abs32(2*cp.scSum + 1)
	case cp.provider >= 0:
		prov.Component = "tagged"
		prov.Confidence = abs32(2*int32(prov.ProviderCtr) + 1)
	default:
		prov.Component = "base"
		prov.Confidence = 1
	}
	return prov
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// StorageRows is the shared part of sim.StorageAccounter, following
// Table I's accounting: the base bimodal, one row per tagged table
// labelled with histLabel and its history length, the family's history
// rows, then the loop predictor and statistical corrector.
func (k *Kernel) StorageRows(histLabel string, history ...sim.Component) sim.Breakdown {
	b := sim.Breakdown{Name: k.name}
	b.Components = append(b.Components, sim.Component{
		Name: "base bimodal (pred+hyst)",
		Bits: len(k.basePred) + len(k.baseHyst),
	})
	for i := range k.tables {
		t := &k.tables[i]
		b.Components = append(b.Components, sim.Component{
			Name: fmt.Sprintf("tagged T%d (%s %d)", i+1, histLabel, t.cfg.HistLen),
			Bits: len(t.tags) * (4 + t.cfg.TagBits), // 3-bit ctr + u + tag
		})
	}
	b.Components = append(b.Components, history...)
	if k.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: k.loop.StorageBits()})
	}
	if k.sc != nil {
		b.Components = append(b.Components, sim.Component{Name: "statistical corrector", Bits: 6 * len(k.sc)})
	}
	return b
}

// ProbeTables is the shared part of sim.StateProbe: base-table warmth,
// per-bank occupancy/conflict/useful/saturation profiles with each bank's
// raw-branch reach, and the statistical corrector's weight saturation.
// Live counts come from the allocate-path bitmap; useful and saturation
// are scanned here, off the hot path.
func (k *Kernel) ProbeTables(reach []int) sim.TableStats {
	ts := sim.TableStats{Predictor: k.name}
	baseLive := 0
	for i, pred := range k.basePred {
		if pred || k.baseHyst[i>>2] {
			baseLive++
		}
	}
	ts.Banks = append(ts.Banks, sim.BankStats{
		Bank: 0, Kind: "base", Entries: len(k.basePred), Live: baseLive,
	})
	for i := range k.tables {
		t := &k.tables[i]
		useful, sat := 0, 0
		for _, w := range t.useful {
			useful += bits.OnesCount64(w)
		}
		for _, c := range t.ctrs {
			if c == ctrMax || c == ctrMin {
				sat++
			}
		}
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      i + 1,
			Kind:      "tagged",
			Entries:   len(t.tags),
			Live:      t.live,
			HistLen:   t.cfg.HistLen,
			Reach:     reach[i],
			UsefulSet: useful,
			Saturated: sat,
			Allocs:    t.allocs,
			Evictions: t.evictions,
		})
	}
	if k.sc != nil {
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(0, "sc", 0, k.sc, scMin, scMax))
	}
	return ts
}
