// Package bftage implements the Bias-Free TAGE predictor of the paper
// (§V): a TAGE organisation whose tagged tables are indexed not by the raw
// global history but by the bias-free global history register (BF-GHR) of
// Fig. 7 — the 16 most recent unfiltered outcome bits followed by the
// contents of segmented recency stacks that each hold only the most recent
// occurrence of non-biased branches from a geometric segment of the
// unfiltered history.
//
// Because the segments reach 2048 branches into the past while the BF-GHR
// is only ~144 bits wide, a 10-table BF-TAGE indexed with history lengths
// {3,8,14,26,40,54,70,94,118,142} can capture the correlations a
// conventional TAGE needs 15 tables and 1930 history bits for — the
// paper's headline BF-TAGE result (Figs. 10-12).
//
// Everything but the history is the conventional TAGE kernel
// (tage.Kernel): this package supplies the BF-GHR index/tag hashing and
// the BST + segmented recency stack history retire.
package bftage

import (
	"fmt"

	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// Config parameterises BF-TAGE: the shared TAGE configuration (whose
// table HistLen is measured in BF-GHR bits — compressed history, not raw
// branches) plus the bias-free history.
type Config struct {
	tage.Config
	// UnfilteredBits is the number of recent unfiltered history bits kept
	// at the front of the BF-GHR (16 in §VI-C, to damp dynamic-detection
	// perturbations).
	UnfilteredBits int
	// SegBounds are the unfiltered-history depths delimiting the
	// recency-stack segments (§VI-C: {16, 32, 48, 64, 80, 104, 128, 192,
	// 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}).
	SegBounds []int
	// SegSize is the per-segment stack capacity (8).
	SegSize int
	// BSTEntries is the Branch Status Table size (8192 in Table I).
	BSTEntries int
	// Classifier overrides the 2-bit FSM BST (e.g. bst.Oracle for the
	// §VI-D static profile-assisted variant).
	Classifier bst.Classifier
}

// PaperSegBounds is the §VI-C history segmentation.
func PaperSegBounds() []int {
	return []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
}

// Histories returns the BF-GHR history lengths for n tagged tables: the
// paper's set for n == 10, a geometric series from 3 to the BF-GHR width
// otherwise.
func Histories(n int) []int {
	if n == 10 {
		return []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	}
	return history.GeometricRange(3, 142, n)
}

// Conventional returns a BF-ISL-TAGE with n tagged tables sized, like the
// paper, to the same storage as the corresponding conventional ISL-TAGE.
func Conventional(n int) Config {
	return conventional(n, true, true)
}

// ConventionalBare drops the SC and IUM components (paralleling
// tage.ConventionalBare).
func ConventionalBare(n int) Config {
	return conventional(n, false, false)
}

func conventional(n int, sc, ium bool) Config {
	// Tagged budget: the conventional target minus what the BF machinery
	// costs (BST 2KB + RS 284B + unfiltered history 3KB, Table I).
	const targetTaggedBits = (48*1024 - 2048 - 284 - 3072) * 8
	cfg := Config{
		Config: tage.Config{
			Name:                 fmt.Sprintf("bf-isl-tage-%d", n),
			BaseLogEntries:       14,
			Tables:               tage.SizeTables(Histories(n), targetTaggedBits),
			PathBits:             16,
			LoopPredictor:        true,
			StatisticalCorrector: sc,
			IUM:                  ium,
			Seed:                 0xBF7A6E,
		},
		UnfilteredBits: 16,
		SegBounds:      PaperSegBounds(),
		SegSize:        8,
		BSTEntries:     8192,
	}
	if !sc && !ium {
		cfg.Name = fmt.Sprintf("bf-tage-%d", n)
	}
	return cfg
}

// bank is one tagged table's BF-GHR key parameters: its geometry and its
// fold register ids (index fold, tag folds, address-bit fold).
type bank struct {
	cfg                 tage.TableConfig
	mask                uint64
	tagMask             uint32
	rIdx, rT0, rT1, rPC int
}

// Predictor is the BF-TAGE predictor.
type Predictor struct {
	tage.Kernel
	cfg    Config
	tables []bank

	class bst.Classifier
	seg   *rs.Segmented
	path  *history.Path

	// fold folds the BF-GHR's outcome bits (channel 0) and address bits
	// (channel 1) at lookup: one register per table per fold the
	// index/tag hash needs.
	fold *history.FoldFamily
	// folds is Fold scratch, indexed by (global) register id.
	folds []uint64
}

// New returns a BF-TAGE predictor for cfg.
func New(cfg Config) *Predictor {
	k := tage.NewKernel(&cfg.Config, "bftage", "bf-tage")
	if cfg.UnfilteredBits < 0 || cfg.UnfilteredBits > 64 {
		panic("bftage: UnfilteredBits out of range")
	}
	if cfg.SegSize < 1 {
		panic("bftage: SegSize must be >= 1")
	}
	if cfg.BSTEntries <= 0 || cfg.BSTEntries&(cfg.BSTEntries-1) != 0 {
		panic("bftage: BSTEntries must be a positive power of two")
	}
	p := &Predictor{
		Kernel: k,
		cfg:    cfg,
		seg:    rs.NewSegmented(cfg.SegBounds, cfg.SegSize),
		path:   history.NewPath(cfg.PathBits),
		class:  cfg.Classifier,
	}
	if p.class == nil {
		p.class = bst.NewTable(cfg.BSTEntries)
	}
	regs := make([]history.Register, 0, 4*len(cfg.Tables))
	for _, tc := range cfg.Tables {
		if tc.HistLen > p.GHRBits() {
			panic("bftage: history length exceeds BF-GHR width")
		}
		r := len(regs)
		p.tables = append(p.tables, bank{
			cfg:     tc,
			mask:    uint64(1<<tc.LogEntries - 1),
			tagMask: uint32(1<<tc.TagBits - 1),
			rIdx:    r,
			rT0:     r + 1,
			rT1:     r + 2,
			rPC:     r + 3,
		})
		regs = append(regs,
			history.Register{Ch: 0, N: tc.HistLen, W: tc.LogEntries},
			history.Register{Ch: 0, N: tc.HistLen, W: tc.TagBits},
			history.Register{Ch: 0, N: tc.HistLen, W: max(tc.TagBits-1, 1)},
			history.Register{Ch: 1, N: tc.HistLen, W: max(tc.LogEntries-1, 1)})
	}
	p.fold = history.NewFoldFamily(cfg.UnfilteredBits, p.seg.Bits(), regs)
	p.folds = make([]uint64, len(regs))
	return p
}

// GHRBits returns the BF-GHR width in bits.
func (p *Predictor) GHRBits() int { return p.cfg.UnfilteredBits + p.seg.Bits() }

// Classifier exposes the BST.
func (p *Predictor) Classifier() bst.Classifier { return p.class }

// BankReach returns, per tagged table, the raw-branch depth the table's
// compressed history can observe. A table consuming L BF-GHR bits sees
// the UnfilteredBits most recent branches directly; every further bit
// is a recency-stack slot, and a slot in segment i can hold a branch as
// deep as SegBounds[i+1]. Conventional tables reach exactly HistLen raw
// branches, so equal-length BF tables reach much deeper — the paper's
// equal-storage structural advantage.
func (p *Predictor) BankReach() []int {
	out := make([]int, len(p.tables))
	for i := range p.tables {
		out[i] = p.reach(p.tables[i].cfg.HistLen)
	}
	return out
}

func (p *Predictor) reach(histLen int) int {
	if histLen <= p.cfg.UnfilteredBits {
		return histLen
	}
	seg := (histLen - p.cfg.UnfilteredBits + p.cfg.SegSize - 1) / p.cfg.SegSize
	if seg >= len(p.cfg.SegBounds) {
		seg = len(p.cfg.SegBounds) - 1
	}
	return p.cfg.SegBounds[seg]
}

// fillKeys computes every table's index and tag from folds of the
// BF-GHR: the ring's packed unfiltered prefix followed by the segmented
// stacks' packed region, on both channels.
func (p *Predictor) fillKeys(pc uint64, idx, tag []uint32) {
	ring := p.seg.Ring()
	rT, rP := p.seg.Region()
	p.fold.Fold(ring.RecentTaken(p.cfg.UnfilteredBits), ring.RecentPC(p.cfg.UnfilteredBits), rT, rP, p.folds)
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i := range p.tables {
		t := &p.tables[i]
		key := pch ^ p.folds[t.rIdx] ^ p.folds[t.rPC]<<1 ^ path<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		tag[i] = (uint32(pch>>8) ^ uint32(p.folds[t.rT0]) ^ uint32(p.folds[t.rT1])<<1) & t.tagMask
	}
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	idx, tag := p.Keys()
	p.fillKeys(pc, idx, tag)
	return p.Issue(pc, idx, tag)
}

// Update implements sim.Predictor (§V-B4).
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	p.Resolve(pc, taken, p.fillKeys)
	p.retire(pc, taken)
}

// retire performs the per-branch history management (§V-B4): classify,
// then commit into the unfiltered ring and the segmented stacks with the
// branch's bias status and hashed address (the stacks pick it up at
// segment boundaries), and push the path register.
func (p *Predictor) retire(pc uint64, taken bool) {
	p.class.Update(pc, taken)
	nonBiased := p.class.Lookup(pc) == bst.NonBiased
	p.seg.Commit(history.Entry{
		HashedPC:  uint32(rng.Hash64(pc>>2) & 0x3FFF),
		Taken:     taken,
		NonBiased: nonBiased,
	})
	p.path.Push(pc)
}

// SimulateBatch implements sim.BatchSimulator: the fused per-branch step
// over a span of records, falling back to Predict+Update while
// predictions are in flight so the result is bit-exact either way.
func (p *Predictor) SimulateBatch(recs []trace.Record, preds []bool) {
	if p.InFlight() {
		for i := range recs {
			preds[i] = p.Predict(recs[i].PC)
			p.Update(recs[i].PC, recs[i].Taken, recs[i].Target)
		}
		return
	}
	idx, tag := p.Scratch()
	for i := range recs {
		pc, taken := recs[i].PC, recs[i].Taken
		p.fillKeys(pc, idx, tag)
		preds[i] = p.Step(pc, idx, tag, taken)
		p.retire(pc, taken)
	}
}

// Explain implements sim.Explainer: TAGE provenance (provider/alt bank,
// counter, useful bit) plus the branch's BST classification, so
// attribution reports can relate bank utilisation to bias filtering.
// BF-TAGE never predicts *from* the filter — the BST only gates history
// insertion — so FilterDecision stays false.
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	prov := p.Provenance(pc, p.fillKeys)
	prov.BiasState = p.class.Lookup(pc).String()
	return prov
}

// Storage implements sim.StorageAccounter, mirroring the paper's Table I.
func (p *Predictor) Storage() sim.Breakdown {
	return p.StorageRows("bf-hist",
		sim.Component{Name: "BST", Bits: p.class.StorageBits()},
		sim.Component{Name: "segmented RS", Bits: p.seg.StorageBits()},
		// Table I: 1536-deep unfiltered history entries of 14-bit hashed
		// PC + outcome + bias status (we model 2048 for the last segment).
		sim.Component{Name: "unfiltered history", Bits: 2048 * (14 + 1 + 1)},
		sim.Component{Name: "path history", Bits: p.cfg.PathBits},
	)
}

// ProbeState implements sim.StateProbe: the kernel's base and tagged
// banks, each with its raw-branch reach (so capacity-vs-reach reports
// can compare BF banks against conventional ones), plus the BST's
// classification census and the segmented recency stacks' fill.
func (p *Predictor) ProbeState() sim.TableStats {
	ts := p.ProbeTables(p.BankReach())
	if tbl, ok := p.class.(*bst.Table); ok {
		counts := tbl.StateCounts()
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      len(p.tables) + 1,
			Kind:      "bst",
			Entries:   tbl.Entries(),
			Live:      tbl.Entries() - counts[bst.NotFound],
			UsefulSet: counts[bst.NonBiased],
		})
	}
	for i := 0; i < p.seg.Segments(); i++ {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: i,
			Size:    p.seg.SegSize(),
			Live:    p.seg.SegmentLen(i),
			Depth:   p.cfg.SegBounds[i+1],
		})
	}
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.BatchSimulator   = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.TableHitReporter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
