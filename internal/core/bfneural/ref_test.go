package bfneural

import "bfbp/internal/rng"

// quantDistRef is the original loop formulation, retained as the
// reference model for the differential test pinning quantDist.
func quantDistRef(d uint64) uint64 {
	if d < 64 {
		return d
	}
	shift := uint(0)
	for v := d; v >= 64; v >>= 1 {
		shift++
	}
	return (d >> shift) << shift
}

// computeRef is the retained reference model for compute: the same sum
// through the per-entry accessors (Ring.At, Stack.Iter, the loop-based
// quantizer) instead of the gathered fast paths. Differential tests run
// both and require identical accumulators and index lists.
func (p *Predictor) computeRef(pc uint64, cp *checkpoint) {
	var pch uint64
	if !p.cfg.AheadPipelined {
		pch = rng.Hash64(pc >> 2)
	}
	accum := int32(p.wb[(pc>>2)&p.biasMask])

	ht := p.cfg.RecentUnfiltered
	cp.wmRows = cp.wmRows[:0]
	cp.wmDirs = cp.wmDirs[:0]
	ring := p.folds.Ring()
	for i := 1; i <= ht; i++ {
		e, ok := ring.At(i)
		if !ok {
			cp.wmRows = append(cp.wmRows, -1)
			cp.wmDirs = append(cp.wmDirs, false)
			continue
		}
		key := pch ^ uint64(e.HashedPC)*0x9e3779b97f4a7c15 ^ p.folds.Fold(i)<<17 ^ uint64(i)<<40
		row := int32(rng.Hash64(key)&p.wmMask)*int32(ht) + int32(i-1)
		cp.wmRows = append(cp.wmRows, row)
		cp.wmDirs = append(cp.wmDirs, e.Taken)
		w := int32(p.wm[row])
		if e.Taken {
			accum += w
		} else {
			accum -= w
		}
	}

	cp.wrsIdxs = cp.wrsIdxs[:0]
	cp.wrsDirs = cp.wrsDirs[:0]
	if p.rstack != nil {
		for it := p.rstack.Iter(); ; {
			e, ok := it.Next()
			if !ok {
				break
			}
			q := quantDistRef(e.Dist)
			key := pch ^ e.PC*0x9e3779b97f4a7c15 ^ q<<28 ^ p.folds.Fold(int(e.Dist))<<9
			idx := int32(rng.Hash64(key) & p.wrsMask)
			cp.wrsIdxs = append(cp.wrsIdxs, idx)
			cp.wrsDirs = append(cp.wrsDirs, e.Taken)
			w := int32(p.wrs[idx])
			if e.Taken {
				accum += w
			} else {
				accum -= w
			}
		}
		cp.accum = accum
		return
	}
	for j := range p.filt {
		e := &p.filt[j]
		dist := p.seq - e.seq
		if dist > p.distCap {
			dist = p.distCap
		}
		key := pch ^ uint64(e.hpc)*0x9e3779b97f4a7c15 ^ uint64(j)<<28 ^ p.folds.Fold(int(dist))<<9
		idx := int32(rng.Hash64(key) & p.wrsMask)
		cp.wrsIdxs = append(cp.wrsIdxs, idx)
		cp.wrsDirs = append(cp.wrsDirs, e.taken)
		w := int32(p.wrs[idx])
		if e.taken {
			accum += w
		} else {
			accum -= w
		}
	}
	cp.accum = accum
}
