// Snapshot support (bfbp.state.v1). Mutable state: the weight tables,
// the BST, the segmented recency stacks (which carry the unfiltered
// history ring), and the adaptive threshold. The in-flight checkpoint
// FIFO and its free list are transient; the BF-GHR folds are computed
// at lookup.

package bfgehl

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bfgehl")
	h.String(p.cfg.Name)
	h.Int(p.cfg.Tables)
	h.Int(p.cfg.LogEntries)
	h.Ints(p.hists)
	h.Int(p.cfg.UnfilteredBits)
	h.Ints(p.cfg.SegBounds)
	h.Int(p.cfg.SegSize)
	h.Int(p.cfg.BSTEntries)
	h.Int(p.cfg.CounterBits)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if len(p.pending) != p.pendStart {
		return errors.New("bfgehl: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	te := s.Section("tables")
	te.U32(uint32(len(p.tables)))
	for _, t := range p.tables {
		te.I8s(t)
	}
	if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
		return err
	}
	p.seg.SaveState(s.Section("history"))
	m := s.Section("misc")
	m.I32(p.theta)
	m.I32(p.tc)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	td, err := s.Dec("tables")
	if err != nil {
		return err
	}
	n := int(td.U32())
	if err := td.Err(); err != nil {
		return err
	}
	if n != len(p.tables) {
		return fmt.Errorf("%w: predictor has %d tables, snapshot %d", state.ErrCorrupt, len(p.tables), n)
	}
	fresh := make([][]int8, n)
	for i := range fresh {
		fresh[i] = td.I8s()
		if err := td.Err(); err != nil {
			return err
		}
		if len(fresh[i]) != len(p.tables[i]) {
			return fmt.Errorf("%w: table %d has %d entries, snapshot %d", state.ErrCorrupt, i, len(p.tables[i]), len(fresh[i]))
		}
		for j, w := range fresh[i] {
			if w < p.wMin || w > p.wMax {
				return fmt.Errorf("%w: table %d weight %d = %d outside [%d, %d]", state.ErrCorrupt, i, j, w, p.wMin, p.wMax)
			}
		}
	}
	// Validate the threshold before touching the BST or the history:
	// commit and adaptTheta keep theta >= 1 and |tc| < 32.
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	theta, tc := m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	if theta < 1 || tc < -31 || tc > 31 {
		return fmt.Errorf("%w: theta %d / tc %d out of range", state.ErrCorrupt, theta, tc)
	}
	cd, err := s.Dec("bst")
	if err != nil {
		return err
	}
	if err := bst.LoadClassifier(cd, p.class); err != nil {
		return err
	}
	hd, err := s.Dec("history")
	if err != nil {
		return err
	}
	if err := p.seg.LoadState(hd); err != nil {
		return err
	}
	p.theta, p.tc = theta, tc
	for i := range p.tables {
		copy(p.tables[i], fresh[i])
	}
	p.pending = p.pending[:0]
	p.pendStart = 0
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
