// FoldPipeline: incrementally maintained folded histories over a
// composite bit vector of the BF-GHR shape — a short unfiltered prefix
// followed by fixed-width segment words (Fig. 7). Instead of rebuilding
// that vector and re-folding it per table per prediction, the pipeline
// keeps every register's fold of the segment region current, exploiting
// that the fold is XOR-linear in the vector's bits:
//
//	FoldWords(prefix ++ segments, n, w)
//	  = fold(prefix bits) XOR fold(segment-region bits)
//	fold_w(x << k) = rot_w(fold_w(x), k mod w)
//
// The first identity splits the live prefix (folded from the ring's
// packed head word at lookup time) from the segment region; the second
// reduces a segment's delta — a word of at most segSize bits landing at
// vector offset prefixBits + s*segSize — to one mask, one fold, one
// rotation and one XOR into each register covering that segment,
// applied eagerly as the delta arrives. The registers are fixed at
// construction, so the per-(channel, segment) cover lists are built
// once into one flat table. Lookup costs one short fold of the prefix
// word plus one XOR per register.
package history

// FoldPipeline maintains a fixed family of folded-history registers over
// up to two parallel composite vectors of identical geometry (prefixBits
// bits of unfiltered head followed by numSegs segment words of segSize
// bits each). Channels exist because BF-TAGE folds two synchronized
// vectors — segment outcome bits and segment address bits — whose
// mutations arrive together. Mutations are applied with SegmentDelta2;
// FoldAll / FoldAll2 return current values given the live prefix
// word(s).
type FoldPipeline struct {
	numSegs int
	regs    []regInfo
	// vals[id] is register id's fold of its covered segment-region bits
	// in vector phase; the live prefix fold is XORed on top at lookup.
	vals []uint64
	// cover[start[c]:start[c+1]] lists the registers a delta to
	// channel/segment c = ch*numSegs + s reaches.
	start []int32
	cover []coverEntry
}

// Register declares one folded register: the first N bits of channel
// Ch's (0 or 1) composite vector, compressed to W bits (1..64).
type Register struct{ Ch, N, W int }

// regInfo is a register's lookup recipe: fold the masked prefix word to
// width w and XOR with the maintained region fold.
type regInfo struct {
	prefixMask uint64 // low min(n, prefixBits) bits of the prefix word
	wMask      uint64 // low w bits
	w          uint8
	ch         uint8
}

// coverEntry applies a segment delta to one register: mask off the
// bits the register covers, fold them to its width, rotate them into
// the segment's phase and XOR into vals[reg].
type coverEntry struct {
	mask  uint64
	wMask uint64
	reg   int32
	w     uint8
	rot   uint8
}

// NewFoldPipeline returns a pipeline over the given vector geometry
// hosting regs; register id i is regs[i]. segSize must be in [1, 64]:
// a segment mutation is one word.
func NewFoldPipeline(prefixBits, segSize, numSegs int, regs []Register) *FoldPipeline {
	if prefixBits < 0 || prefixBits > 64 {
		panic("history: fold pipeline prefix bits out of range")
	}
	if segSize < 1 || segSize > 64 {
		panic("history: fold pipeline segment size out of range [1,64]")
	}
	if numSegs < 0 {
		panic("history: fold pipeline segment count negative")
	}
	p := &FoldPipeline{
		numSegs: numSegs,
		regs:    make([]regInfo, len(regs)),
		vals:    make([]uint64, len(regs)),
		start:   make([]int32, 2*numSegs+1),
	}
	total := 0
	for id, r := range regs {
		if r.Ch < 0 || r.Ch > 1 {
			panic("history: fold pipeline channel out of range [0,1]")
		}
		if r.W < 1 || r.W > 64 {
			panic("history: fold pipeline register width out of range")
		}
		if r.N < 1 || r.N > prefixBits+numSegs*segSize {
			panic("history: fold pipeline register length exceeds vector")
		}
		p.regs[id] = regInfo{
			prefixMask: lowMask(min(r.N, prefixBits)),
			wMask:      lowMask(r.W),
			w:          uint8(r.W),
			ch:         uint8(r.Ch),
		}
		if region := r.N - prefixBits; region > 0 {
			total += (region + segSize - 1) / segSize
		}
	}
	p.cover = make([]coverEntry, 0, total)
	for c := 0; c < 2*numSegs; c++ {
		ch, off := c/numSegs, c%numSegs*segSize
		for id, r := range regs {
			bits := min(r.N-prefixBits-off, segSize)
			if r.Ch != ch || bits <= 0 {
				continue
			}
			p.cover = append(p.cover, coverEntry{
				mask:  lowMask(bits),
				wMask: lowMask(r.W),
				reg:   int32(id),
				w:     uint8(r.W),
				rot:   uint8((prefixBits + off) % r.W),
			})
		}
		p.start[c+1] = int32(len(p.cover))
	}
	return p
}

// Reset zeroes every register's region fold (the state when all
// segments are empty). Callers rebuilding from a snapshot Reset and
// then feed each segment's packed word through SegmentDelta2.
func (p *FoldPipeline) Reset() {
	clear(p.vals)
}

// SegmentDelta2 applies XOR deltas of segment s's packed words (bit j =
// slot j) on both channels to every covering register. Feeding a word
// itself is equivalent to toggling it in (used for rebuilds).
func (p *FoldPipeline) SegmentDelta2(s int, d0, d1 uint64) {
	p.apply(s, d0)
	p.apply(p.numSegs+s, d1)
}

// apply folds delta d into every register on cover list c.
func (p *FoldPipeline) apply(c int, d uint64) {
	if d == 0 {
		return
	}
	vals := p.vals
	for _, e := range p.cover[p.start[c]:p.start[c+1]] {
		w, r := uint(e.w), uint(e.rot)
		f := foldSlow(d&e.mask, e.wMask, w)
		vals[e.reg] ^= (f<<r | f>>(w-r)) & e.wMask
	}
}

// foldSlow folds x down to w bits one width step at a time. Inputs
// already below 2^w (narrow deltas, short prefixes) cost a single
// compare.
func foldSlow(x, wMask uint64, w uint) uint64 {
	for x > wMask {
		x = x&wMask ^ x>>w
	}
	return x
}

// FoldAll writes every register's current value into out (indexed by
// register id), applying the same prefix word to both channels — the
// single-vector form of FoldAll2.
func (p *FoldPipeline) FoldAll(prefix uint64, out []uint64) {
	p.FoldAll2(prefix, prefix, out)
}

// FoldAll2 writes every register's current value into out (indexed by
// register id) given the live prefix words of the two channels (bit i =
// vector bit i; bits at and beyond prefixBits are ignored). Each value
// equals FoldWords over the register's channel vector, length and
// width.
func (p *FoldPipeline) FoldAll2(prefix0, prefix1 uint64, out []uint64) {
	vals := p.vals
	for id := range p.regs {
		r := &p.regs[id]
		pv := prefix0
		if r.ch != 0 {
			pv = prefix1
		}
		out[id] = foldSlow(pv&r.prefixMask, r.wMask, uint(r.w)) ^ vals[id]
	}
}
