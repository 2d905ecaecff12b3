// Snapshot support (bfbp.state.v1). Mutable state: the BST, the three
// weight tables (Wb, Wm, Wrs), the unfiltered history fold set and the
// committed-branch counter, the filtered structure (recency stack or
// shift register, per mode), the loop predictor, and the adaptive
// threshold. The in-flight checkpoint FIFO and its free list are
// transient: snapshots are taken at quiescent points.

package bfneural

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bfneural")
	h.String(p.cfg.Name)
	h.Int(int(p.cfg.Mode))
	h.Int(p.cfg.BSTEntries)
	h.String(bst.KindOf(p.class))
	h.Int(p.cfg.BiasEntries)
	h.Int(p.cfg.WmRows)
	h.Int(p.cfg.RecentUnfiltered)
	h.Int(p.cfg.WrsEntries)
	h.Int(p.cfg.RSDepth)
	h.Int(p.cfg.DistBits)
	h.Int(p.cfg.FoldWidth)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.NotFoundPrediction)
	h.Bool(p.cfg.AheadPipelined)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if len(p.pending) != p.pendStart {
		return errors.New("bfneural: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
		return err
	}
	s.Section("wb").I8s(p.wb)
	s.Section("wm").I8s(p.wm)
	s.Section("wrs").I8s(p.wrs)
	hs := s.Section("history")
	p.folds.SaveState(hs)
	hs.U64(p.seq)
	if p.rstack != nil {
		p.rstack.SaveState(s.Section("rstack"))
	} else {
		fe := s.Section("filt")
		fe.U32(uint32(len(p.filt)))
		for i := range p.filt {
			fe.U32(p.filt[i].hpc)
			fe.Bool(p.filt[i].taken)
			fe.U64(p.filt[i].seq)
		}
	}
	m := s.Section("misc")
	m.I32(p.withLoop)
	m.I32(p.theta)
	m.I32(p.tc)
	if p.loop != nil {
		p.loop.SaveState(s.Section("loop"))
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	// Decode and validate the weights and the threshold before touching
	// any state: satUpdate6 keeps Wm/Wrs weights in [wMin, wMax] (Wb
	// uses the full int8 range), adaptTheta keeps theta >= 4 and
	// |tc| < 16, and the loop-trust counter is clamped to [-64, 63].
	weights := []struct {
		name   string
		dst    []int8
		lo, hi int8
		got    []int8
	}{
		{name: "wb", dst: p.wb, lo: -128, hi: 127},
		{name: "wm", dst: p.wm, lo: wMin, hi: wMax},
		{name: "wrs", dst: p.wrs, lo: wMin, hi: wMax},
	}
	for i := range weights {
		t := &weights[i]
		d, err := s.Dec(t.name)
		if err != nil {
			return err
		}
		t.got = d.I8s()
		if err := d.Err(); err != nil {
			return err
		}
		if len(t.got) != len(t.dst) {
			return fmt.Errorf("%w: %s has %d weights, snapshot %d", state.ErrCorrupt, t.name, len(t.dst), len(t.got))
		}
		for j, w := range t.got {
			if w < t.lo || w > t.hi {
				return fmt.Errorf("%w: %s weight %d = %d outside [%d, %d]", state.ErrCorrupt, t.name, j, w, t.lo, t.hi)
			}
		}
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	withLoop, theta, tc := m.I32(), m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	if theta < 4 || tc < -15 || tc > 15 || withLoop < -64 || withLoop > 63 {
		return fmt.Errorf("%w: theta %d / tc %d / loop trust %d out of range", state.ErrCorrupt, theta, tc, withLoop)
	}
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
	if err := p.folds.LoadState(hs); err != nil {
		return err
	}
	p.seq = hs.U64()
	if err := hs.Err(); err != nil {
		return err
	}
	if p.rstack != nil {
		rd, err := s.Dec("rstack")
		if err != nil {
			return err
		}
		if err := p.rstack.LoadState(rd); err != nil {
			return err
		}
	} else {
		fd, err := s.Dec("filt")
		if err != nil {
			return err
		}
		n := int(fd.U32())
		if err := fd.Err(); err != nil {
			return err
		}
		if n > p.cfg.RSDepth {
			return fmt.Errorf("%w: filtered register has %d entries, depth is %d", state.ErrCorrupt, n, p.cfg.RSDepth)
		}
		filt := make([]fentry, n)
		for i := range filt {
			filt[i] = fentry{hpc: fd.U32(), taken: fd.Bool(), seq: fd.U64()}
		}
		if err := fd.Err(); err != nil {
			return err
		}
		p.filt = filt
	}
	if p.loop != nil {
		ld, err := s.Dec("loop")
		if err != nil {
			return err
		}
		if err := p.loop.LoadState(ld); err != nil {
			return err
		}
	}
	for _, t := range weights {
		copy(t.dst, t.got)
	}
	p.withLoop, p.theta, p.tc = withLoop, theta, tc
	p.pending = p.pending[:0]
	p.pendStart = 0
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
