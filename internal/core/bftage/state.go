// Snapshot support (bfbp.state.v1). The kernel writes the shared TAGE
// sections (tage.Kernel.SaveSnapshot); BF-TAGE adds the Branch Status
// Table and the segmented recency stacks (which carry the unfiltered
// history ring) with the path register. The BF-GHR folds are computed
// at lookup, so nothing derived needs rebuilding.

package bftage

import (
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bftage")
	h.String(p.cfg.Name)
	h.Int(p.cfg.BaseLogEntries)
	h.Int(len(p.cfg.Tables))
	for _, t := range p.cfg.Tables {
		h.Int(t.HistLen)
		h.Int(t.TagBits)
		h.Int(t.LogEntries)
	}
	h.Int(p.cfg.UnfilteredBits)
	h.Ints(p.cfg.SegBounds)
	h.Int(p.cfg.SegSize)
	h.Int(p.cfg.BSTEntries)
	h.String(bst.KindOf(p.class))
	h.Int(p.cfg.PathBits)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.StatisticalCorrector)
	h.Bool(p.cfg.IUM)
	h.Int(p.cfg.UResetPeriod)
	h.U64(p.cfg.Seed)
	return h.Sum()
}

// SaveState implements sim.Snapshotter. Between the kernel's base and
// misc sections sit the bst section and the history section (segmented
// stacks with their unfiltered ring, then the path register).
func (p *Predictor) SaveState(w io.Writer) error {
	return p.SaveSnapshot(w, p.configHash(), nil, func(s *state.Snapshot) error {
		if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
			return err
		}
		hs := s.Section("history")
		p.seg.SaveState(hs)
		p.path.SaveState(hs)
		return nil
	})
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	return p.LoadSnapshot(r, p.configHash(), nil, func(s *state.Snapshot) error {
		cd, err := s.Dec("bst")
		if err != nil {
			return err
		}
		if err := bst.LoadClassifier(cd, p.class); err != nil {
			return err
		}
		hs, err := s.Dec("history")
		if err != nil {
			return err
		}
		if err := p.seg.LoadState(hs); err != nil {
			return err
		}
		return p.path.LoadState(hs)
	})
}

var _ sim.Snapshotter = (*Predictor)(nil)
