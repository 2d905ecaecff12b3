// Snapshot support (bfbp.state.v1). The kernel owns the shared sections
// — tagged entries, the base bimodal, the allocator RNG and u-reset
// clock, the loop predictor, the statistical corrector and the provider
// histogram — and each family adds its history around them. The
// in-flight checkpoint FIFO is deliberately not serialised: snapshots
// are taken at quiescent points (no prediction awaiting its update).

package tage

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// SaveSnapshot writes the kernel's snapshot in section order table_i
// (entries in interleaved per-entry order, then whatever saveTable adds),
// base, the family's sections from saveHistory, misc, loop and sc.
// saveTable may be nil.
func (k *Kernel) SaveSnapshot(w io.Writer, configHash uint64,
	saveTable func(i int, e *state.Enc), saveHistory func(s *state.Snapshot) error) error {
	if k.InFlight() {
		return errors.New(k.family + ": cannot snapshot with in-flight predictions")
	}
	s := state.New(k.name, configHash)
	for i := range k.tables {
		t := &k.tables[i]
		e := s.Section("table_" + strconv.Itoa(i))
		for j := range t.tags {
			e.U16(t.tags[j])
			e.I8(t.ctrs[j])
			e.Bool(t.u(uint32(j)))
		}
		if saveTable != nil {
			saveTable(i, e)
		}
	}
	b := s.Section("base")
	b.Bools(k.basePred)
	b.Bools(k.baseHyst)
	if err := saveHistory(s); err != nil {
		return err
	}
	m := s.Section("misc")
	m.I32(k.useAltOnNA)
	m.Int(k.tick)
	m.U64(k.r.State())
	m.I32(k.withLoop)
	m.U64s(k.providerHits)
	if k.loop != nil {
		k.loop.SaveState(s.Section("loop"))
	}
	if k.sc != nil {
		s.Section("sc").I8s(k.sc)
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadSnapshot restores a snapshot written by SaveSnapshot with the same
// hooks. Any decoded value outside the range the predictor can reach is
// rejected with state.ErrCorrupt. loadTable may be nil.
func (k *Kernel) LoadSnapshot(r io.Reader, configHash uint64,
	loadTable func(i int, d *state.Dec) error, loadHistory func(s *state.Snapshot) error) error {
	s, err := state.Load(r, k.name, configHash)
	if err != nil {
		return err
	}
	for i := range k.tables {
		t := &k.tables[i]
		d, err := s.Dec("table_" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		for j := range t.tags {
			tag, ctr := d.U16(), d.I8()
			if uint32(tag) > t.tagMask || ctr < ctrMin || ctr > ctrMax {
				return fmt.Errorf("%w: table %d entry %d holds tag %#x, counter %d", state.ErrCorrupt, i, j, tag, ctr)
			}
			t.tags[j], t.ctrs[j] = tag, ctr
			t.setU(uint32(j), d.Bool())
		}
		if loadTable != nil {
			if err := loadTable(i, d); err != nil {
				return fmt.Errorf("table %d %w", i, err)
			}
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("%w: %d trailing bytes in table %d", state.ErrCorrupt, d.Remaining(), i)
		}
	}
	b, err := s.Dec("base")
	if err != nil {
		return err
	}
	basePred, baseHyst := b.Bools(), b.Bools()
	if err := b.Err(); err != nil {
		return err
	}
	if len(basePred) != len(k.basePred) || len(baseHyst) != len(k.baseHyst) {
		return fmt.Errorf("%w: base bimodal is %d+%d entries, snapshot %d+%d",
			state.ErrCorrupt, len(k.basePred), len(k.baseHyst), len(basePred), len(baseHyst))
	}
	copy(k.basePred, basePred)
	copy(k.baseHyst, baseHyst)
	if err := loadHistory(s); err != nil {
		return err
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	useAltOnNA, tick, rs, withLoop, hits := m.I32(), m.Int(), m.U64(), m.I32(), m.U64s()
	if err := m.Err(); err != nil {
		return err
	}
	switch {
	case useAltOnNA < 0 || useAltOnNA > 15:
		return fmt.Errorf("%w: use-alt-on-NA counter %d outside [0,15]", state.ErrCorrupt, useAltOnNA)
	case withLoop < -64 || withLoop > 63:
		return fmt.Errorf("%w: loop confidence %d outside [-64,63]", state.ErrCorrupt, withLoop)
	case tick < 0 || tick >= k.cfg.UResetPeriod:
		return fmt.Errorf("%w: u-reset tick %d outside [0,%d)", state.ErrCorrupt, tick, k.cfg.UResetPeriod)
	case len(hits) != len(k.providerHits):
		return fmt.Errorf("%w: provider histogram has %d buckets, snapshot %d", state.ErrCorrupt, len(k.providerHits), len(hits))
	}
	k.useAltOnNA, k.tick, k.withLoop = useAltOnNA, tick, withLoop
	k.r.SetState(rs)
	copy(k.providerHits, hits)
	if k.loop != nil {
		ld, err := s.Dec("loop")
		if err != nil {
			return err
		}
		if err := k.loop.LoadState(ld); err != nil {
			return err
		}
	}
	if k.sc != nil {
		sd, err := s.Dec("sc")
		if err != nil {
			return err
		}
		sc := sd.I8s()
		if err := sd.Err(); err != nil {
			return err
		}
		if len(sc) != len(k.sc) {
			return fmt.Errorf("%w: statistical corrector has %d counters, snapshot %d", state.ErrCorrupt, len(k.sc), len(sc))
		}
		for i, v := range sc {
			if v < scMin || v > scMax {
				return fmt.Errorf("%w: statistical corrector counter %d is %d, outside [%d,%d]", state.ErrCorrupt, i, v, scMin, scMax)
			}
		}
		copy(k.sc, sc)
	}
	k.pending = k.pending[:0]
	k.pendStart = 0
	return nil
}

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("tage")
	h.String(p.cfg.Name)
	h.Int(p.cfg.BaseLogEntries)
	h.Int(len(p.cfg.Tables))
	for _, t := range p.cfg.Tables {
		h.Int(t.HistLen)
		h.Int(t.TagBits)
		h.Int(t.LogEntries)
	}
	h.Int(p.cfg.PathBits)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.StatisticalCorrector)
	h.Bool(p.cfg.IUM)
	h.Int(p.cfg.UResetPeriod)
	h.U64(p.cfg.Seed)
	return h.Sum()
}

// SaveState implements sim.Snapshotter. Each table_i section carries the
// table's three folded-history registers after its entries; the history
// section holds the ring and path register.
func (p *Predictor) SaveState(w io.Writer) error {
	return p.SaveSnapshot(w, p.configHash(),
		func(i int, e *state.Enc) {
			f := &p.folds[i]
			f.idx.SaveState(e)
			f.tag0.SaveState(e)
			f.tag1.SaveState(e)
		},
		func(s *state.Snapshot) error {
			hs := s.Section("history")
			p.ring.SaveState(hs)
			p.path.SaveState(hs)
			return nil
		})
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	return p.LoadSnapshot(r, p.configHash(),
		func(i int, d *state.Dec) error {
			f := &p.folds[i]
			if err := f.idx.LoadState(d); err != nil {
				return fmt.Errorf("foldIdx: %w", err)
			}
			if err := f.tag0.LoadState(d); err != nil {
				return fmt.Errorf("foldTag0: %w", err)
			}
			if err := f.tag1.LoadState(d); err != nil {
				return fmt.Errorf("foldTag1: %w", err)
			}
			return nil
		},
		func(s *state.Snapshot) error {
			hs, err := s.Dec("history")
			if err != nil {
				return err
			}
			if err := p.ring.LoadState(hs); err != nil {
				return err
			}
			return p.path.LoadState(hs)
		})
}

var _ sim.Snapshotter = (*Predictor)(nil)
