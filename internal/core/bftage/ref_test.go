package bftage

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
)

// buildGHR composes the BF-GHR bit vector (outcomes) and the parallel
// address-bit vector: recent unfiltered bits first, then each segment's
// stack slots in increasing depth (Fig. 7). Both are packed BitVecs —
// the unfiltered prefix is one masked word off the ring's shift
// registers and each segment contributes one pre-packed word, so the
// build is O(segments) instead of O(GHR bits).
func (p *Predictor) buildGHR(ghrVec, pcsVec *history.BitVec) {
	ghrVec.Reset()
	pcsVec.Reset()
	ring := p.seg.Ring()
	ghrVec.Append(ring.RecentTaken(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	pcsVec.Append(ring.RecentPC(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	p.seg.AppendPacked(ghrVec, pcsVec)
}

// fillKeysRef is the scalar reference model: rebuild the packed BF-GHR
// and re-fold it per table with FoldWords. Differential tests pin
// fillKeys to this path bit for bit.
func (p *Predictor) fillKeysRef(pc uint64, idx, tag []uint32) {
	var ghrVec, pcsVec history.BitVec
	p.buildGHR(&ghrVec, &pcsVec)
	bits, pcs := ghrVec.Words(), pcsVec.Words()
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i := range p.tables {
		t := &p.tables[i]
		l := t.cfg.HistLen
		fIdx := history.FoldWords(bits, l, t.cfg.LogEntries)
		fPC := history.FoldWords(pcs, l, max(t.cfg.LogEntries-1, 1))
		key := pch ^ fIdx ^ fPC<<1 ^ path<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		fT0 := history.FoldWords(bits, l, t.cfg.TagBits)
		fT1 := history.FoldWords(bits, l, max(t.cfg.TagBits-1, 1))
		tag[i] = (uint32(pch>>8) ^ uint32(fT0) ^ uint32(fT1)<<1) & t.tagMask
	}
}
