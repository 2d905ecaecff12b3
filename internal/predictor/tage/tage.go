package tage

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// foldSet is one tagged table's incremental folded histories: the index
// fold and the two tag folds.
type foldSet struct {
	idx, tag0, tag1 *history.Folded
}

// Predictor is a TAGE / ISL-TAGE predictor: the shared kernel indexed
// from the raw global history through incremental folded registers.
type Predictor struct {
	Kernel
	folds []foldSet
	ring  *history.Ring
	path  *history.Path
}

// New returns a predictor for the given configuration.
func New(cfg Config) *Predictor {
	p := &Predictor{Kernel: NewKernel(&cfg, "tage", "tage")}
	for _, tc := range cfg.Tables {
		p.folds = append(p.folds, foldSet{
			idx:  history.NewFolded(tc.HistLen, tc.LogEntries),
			tag0: history.NewFolded(tc.HistLen, tc.TagBits),
			tag1: history.NewFolded(tc.HistLen, max(tc.TagBits-1, 1)),
		})
	}
	ringCap := 1
	for ringCap < cfg.Tables[len(cfg.Tables)-1].HistLen+2 {
		ringCap <<= 1
	}
	p.ring = history.NewRing(ringCap)
	p.path = history.NewPath(cfg.PathBits)
	return p
}

// BankReach returns, per tagged table, the raw-branch depth the table
// observes — for a conventional GHR this is simply the history length.
func (p *Predictor) BankReach() []int { return p.Histories() }

// Histories returns the per-table history lengths.
func (p *Predictor) Histories() []int {
	out := make([]int, len(p.tables))
	for i := range p.tables {
		out[i] = p.tables[i].cfg.HistLen
	}
	return out
}

// indices computes the per-table index and tag for pc.
func (p *Predictor) indices(pc uint64, idx, tag []uint32) {
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i := range p.tables {
		t, f := &p.tables[i], &p.folds[i]
		key := pch ^ f.idx.Value() ^ (path&((1<<uint(min(t.cfg.HistLen, p.cfg.PathBits)))-1))<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		tg := uint32(pch>>8) ^ uint32(f.tag0.Value()) ^ uint32(f.tag1.Value())<<1
		tag[i] = tg & t.tagMask
	}
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	idx, tag := p.Keys()
	p.indices(pc, idx, tag)
	return p.Issue(pc, idx, tag)
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	p.Resolve(pc, taken, p.indices)
	p.pushHistory(pc, taken)
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
		p.indices(pc, idx, tag)
		preds[i] = p.Step(pc, idx, tag, taken)
		p.pushHistory(pc, taken)
	}
}

func (p *Predictor) pushHistory(pc uint64, taken bool) {
	for i := range p.folds {
		f := &p.folds[i]
		old := p.ring.TakenAt(p.tables[i].cfg.HistLen)
		f.idx.Update(taken, old)
		f.tag0.Update(taken, old)
		f.tag1.Update(taken, old)
	}
	p.ring.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
	p.path.Push(pc)
}

// Explain implements sim.Explainer.
func (p *Predictor) Explain(pc uint64) sim.Provenance { return p.Provenance(pc, p.indices) }

// Storage implements sim.StorageAccounter, following Table I's accounting.
func (p *Predictor) Storage() sim.Breakdown {
	return p.StorageRows("hist",
		sim.Component{Name: "global history ring", Bits: p.ring.Cap()},
		sim.Component{Name: "path history", Bits: p.cfg.PathBits})
}

// ProbeState implements sim.StateProbe.
func (p *Predictor) ProbeState() sim.TableStats { return p.ProbeTables(p.Histories()) }

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.BatchSimulator   = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.TableHitReporter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
