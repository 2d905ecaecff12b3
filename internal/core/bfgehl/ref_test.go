package bfgehl

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
)

// buildGHR assembles the packed BF-GHR: the unfiltered prefix is one
// masked word off the ring, each segment contributes one packed word.
// pcsVec is built but unused by the hash.
func (p *Predictor) buildGHR(ghrVec, pcsVec *history.BitVec) {
	ghrVec.Reset()
	pcsVec.Reset()
	ghrVec.Append(p.seg.Ring().RecentTaken(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	p.seg.AppendPacked(ghrVec, pcsVec)
}

// computeRef is the scalar reference model: rebuild the packed BF-GHR
// and re-fold it per table with FoldWords. Differential tests pin
// compute to this path bit for bit.
func (p *Predictor) computeRef(pc uint64) int32 {
	if cap(p.idxBuf) < len(p.tables) {
		p.idxBuf = make([]uint32, len(p.tables))
	}
	p.idxBuf = p.idxBuf[:len(p.tables)]
	var ghrVec, pcsVec history.BitVec
	p.buildGHR(&ghrVec, &pcsVec)
	bits := ghrVec.Words()
	pch := rng.Hash64(pc >> 2)
	var sum int32
	for i := range p.tables {
		var key uint64
		if i == 0 {
			key = pch
		} else {
			key = pch ^ history.FoldWords(bits, p.hists[i], p.cfg.LogEntries)<<3 ^ uint64(i)<<57
		}
		idx := uint32(rng.Hash64(key) & p.mask)
		p.idxBuf[i] = idx
		sum += 2*int32(p.tables[i][idx]) + 1
	}
	return sum
}
