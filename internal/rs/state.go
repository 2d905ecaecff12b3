// Snapshot support (bfbp.state.v1). A cam serialises its live entries
// in recency order and rebuilds by replaying them oldest-first, so the
// restored intrusive list iterates identically to the saved one; slot
// numbering and hash-index layout are unobservable implementation
// detail and are free to differ.

package rs

import (
	"fmt"

	"bfbp/internal/state"
)

// save appends the cam's live entries, most recent first.
func (c *cam) save(e *state.Enc) {
	e.U32(uint32(c.n))
	for k := 0; k < c.n; k++ {
		s := c.order[k]
		e.U64(c.pc[s])
		e.Bool(c.taken[s])
		e.U64(c.seq[s])
	}
}

// load rebuilds the cam from a saved entry list.
func (c *cam) load(d *state.Dec) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > len(c.pc) {
		return fmt.Errorf("%w: cam holds %d slots, snapshot has %d entries", state.ErrCorrupt, len(c.pc), n)
	}
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		pcs[i] = d.U64()
		taken[i] = d.Bool()
		seqs[i] = d.U64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	fresh := newCam(len(c.pc))
	for i := n - 1; i >= 0; i-- {
		if fresh.lookup(pcs[i]) != camNil {
			return fmt.Errorf("%w: duplicate cam pc %#x", state.ErrCorrupt, pcs[i])
		}
		fresh.push(pcs[i], taken[i], seqs[i])
	}
	*c = fresh
	return nil
}

// SaveState appends the stack's position counter and live entries to a
// snapshot section. Depth and distance width are configuration.
func (s *Stack) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.c.save(e)
}

// LoadState restores a stack saved by SaveState into one of the same
// depth.
func (s *Stack) LoadState(d *state.Dec) error {
	s.seq = d.U64()
	return s.c.load(d)
}

// save appends the segment's live entries, most recent first — the same
// byte stream the original cam-backed segment produced.
func (g *segment) save(e *state.Enc) {
	e.U32(uint32(g.n))
	for j := 0; j < g.n; j++ {
		e.U64(uint64(g.pcs[j]))
		e.Bool(g.takenBits>>uint(j)&1 != 0)
		e.U64(g.seqs[j])
	}
}

// load rebuilds the segment from a saved entry list, repacking the
// outcome/address words directly. seq is the restored position counter:
// slots are inserted with ever-increasing sequence numbers no later than
// it, so their seqs must be strictly decreasing and at most seq —
// eviction only inspects the tail and computes seq - seqs[n-1].
func (g *segment) load(d *state.Dec, seq uint64) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > len(g.pcs) {
		return fmt.Errorf("%w: segment holds %d slots, snapshot has %d entries", state.ErrCorrupt, len(g.pcs), n)
	}
	g.n = n
	g.takenBits, g.pcBits = 0, 0
	for j := 0; j < n; j++ {
		pc := d.U64()
		taken := d.Bool()
		g.seqs[j] = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		for k := 0; k < j; k++ {
			if g.pcs[k] == uint32(pc) {
				return fmt.Errorf("%w: duplicate cam pc %#x", state.ErrCorrupt, pc)
			}
		}
		if g.seqs[j] > seq || j > 0 && g.seqs[j] >= g.seqs[j-1] {
			return fmt.Errorf("%w: segment slot %d seq %d out of order (position %d)", state.ErrCorrupt, j, g.seqs[j], seq)
		}
		g.pcs[j] = uint32(pc)
		if taken {
			g.takenBits |= 1 << uint(j)
		}
		g.pcBits |= (pc & 1) << uint(j)
	}
	return nil
}

// SaveState appends the segmented stack's position counter, unfiltered
// ring, and every segment's entries.
func (s *Segmented) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.ring.SaveState(e)
	e.U32(uint32(len(s.segs)))
	for i := range s.segs {
		s.segs[i].save(e)
	}
}

// LoadState restores a segmented stack saved by SaveState into one
// built with the same bounds and segment size.
func (s *Segmented) LoadState(d *state.Dec) error {
	s.seq = d.U64()
	if err := s.ring.LoadState(d); err != nil {
		return err
	}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(s.segs) {
		return fmt.Errorf("%w: segmented stack has %d segments, snapshot %d", state.ErrCorrupt, len(s.segs), n)
	}
	clear(s.regT)
	clear(s.regP)
	for i := range s.segs {
		g := &s.segs[i]
		if err := g.load(d, s.seq); err != nil {
			return err
		}
		off := uint(i * s.segSize)
		xorAt(s.regT, off, g.takenBits)
		xorAt(s.regP, off, g.pcBits)
	}
	return d.Err()
}
