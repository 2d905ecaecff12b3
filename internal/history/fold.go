// FoldFamily: a fixed family of folded-history registers computed at
// lookup time from the packed BF-GHR — a short unfiltered prefix
// followed by a packed region (the recency-stack segments of Fig. 7).
// A register folds the first n vector bits to w bits: bit p lands at
// p mod w. Folding is XOR-linear, so the n bits can be cut into pieces
// of C = w*floor(64/w) bits. Every piece starts at a multiple of w and
// therefore lands in phase, so
//
//	FoldWords(vec, n, w) = fold_w(XOR_j piece_j)
//
// where piece_j is vector bits [jC, min(n, (j+1)C)) shifted down to bit
// 0 and fold_w of one word is a few log-step shift-XORs (x ^= x>>w;
// x ^= x>>2w; ...). Every piece's word, shift and mask is fixed by the
// register geometry, so construction flattens the family into tables
// and a lookup is a few flat passes over them: no division, no chunk
// walk, no rotation, and no state to maintain as the history changes.
package history

// Register declares one folded register: the first N bits of channel
// Ch's (0 or 1) vector, compressed to W bits (1..64).
type Register struct{ Ch, N, W int }

// FoldFamily folds a fixed register family over up to two parallel
// vectors of identical geometry (prefixBits bits of prefix followed by
// regionBits bits of region). BF-TAGE folds two such vectors — outcome
// bits and address bits — hence the channels.
type FoldFamily struct {
	shift uint   // prefixBits: region bit i is vector bit shift+i
	pmask uint64 // low prefixBits bits
	nw    int    // vector words per channel
	nch   int    // channels any register reads
	// buf is lookup scratch: channel c's vector words at buf[c*nw:],
	// then one zero word.
	buf []uint64
	// heads[i] is register i's first piece and final fold; pieces are
	// every register's further pieces.
	heads  []foldHead
	pieces []foldPiece
}

// foldHead seeds register i with its first piece, buf[src] & mask, and
// after the other pieces are XORed in folds it to w bits. lim is the
// accumulated value's live bit count: fold steps at or beyond it shift
// out nothing, so they are skipped.
type foldHead struct {
	mask  uint64
	wMask uint64
	src   int32
	w     uint8
	lim   uint8
}

// foldPiece XORs one further piece into register reg: the vector bits
// from bit sh of buf[lo] up, continued by buf[hi], masked to the piece.
// hi is the zero word when the piece ends inside buf[lo], so the shift
// counts stay in [0, 63].
type foldPiece struct {
	mask   uint64
	lo, hi int32
	reg    int32
	sh     uint8
}

// NewFoldFamily returns the family regs (register id i is regs[i]) over
// vectors of prefixBits (0..64) prefix bits followed by regionBits region
// bits.
func NewFoldFamily(prefixBits, regionBits int, regs []Register) *FoldFamily {
	if prefixBits < 0 || prefixBits > 64 {
		panic("history: fold prefix bits out of range [0,64]")
	}
	if regionBits < 0 {
		panic("history: fold region bits negative")
	}
	f := &FoldFamily{
		shift: uint(prefixBits),
		pmask: lowMask(prefixBits),
		nw:    (prefixBits + regionBits + 63) / 64,
		nch:   1,
		heads: make([]foldHead, len(regs)),
	}
	for _, r := range regs {
		if r.Ch < 0 || r.Ch > 1 {
			panic("history: fold register channel out of range [0,1]")
		}
		if r.W < 1 || r.W > 64 {
			panic("history: fold register width out of range [1,64]")
		}
		if r.N < 1 || r.N > prefixBits+regionBits {
			panic("history: fold register length exceeds vector")
		}
		f.nch = max(f.nch, r.Ch+1)
	}
	f.buf = make([]uint64, f.nch*f.nw+1)
	zero := int32(len(f.buf) - 1)
	for id, r := range regs {
		c := r.W * (64 / r.W)
		base := r.Ch * f.nw
		f.heads[id] = foldHead{
			mask:  lowMask(min(c, r.N)),
			wMask: lowMask(r.W),
			src:   int32(base),
			w:     uint8(r.W),
			lim:   uint8(min(c, r.N)),
		}
		for lo := c; lo < r.N; lo += c {
			bits := min(c, r.N-lo)
			p := foldPiece{
				mask: lowMask(bits),
				lo:   int32(base + lo/64),
				hi:   zero,
				reg:  int32(id),
				sh:   uint8(lo % 64),
			}
			if lo%64+bits > 64 {
				p.hi = p.lo + 1
			}
			f.pieces = append(f.pieces, p)
		}
	}
	return f
}

// Fold writes every register's fold into out (indexed by register id)
// given each channel's prefix word (bit i = vector bit i; bits at and
// beyond prefixBits are ignored) and packed region words (bit i = region
// bit i, zero beyond regionBits, at least ceil((prefixBits+regionBits)/64)
// words). Each value equals FoldWords over the register's channel
// vector, length and width. Channel 1's arguments are unused when no
// register reads it.
func (f *FoldFamily) Fold(prefix0, prefix1 uint64, region0, region1 []uint64, out []uint64) {
	buf := f.buf
	compose(buf[:f.nw], prefix0&f.pmask, region0, f.shift)
	if f.nch > 1 {
		compose(buf[f.nw:2*f.nw], prefix1&f.pmask, region1, f.shift)
	}
	heads := f.heads
	out = out[:len(heads)]
	for i := range heads {
		out[i] = buf[heads[i].src] & heads[i].mask
	}
	for i := range f.pieces {
		p := &f.pieces[i]
		// sh is in [1, 63] whenever buf[hi] is not the zero word, so the
		// masked count is exact and spares Go's oversized-shift guard.
		sh := uint(p.sh)
		out[p.reg] ^= (buf[p.lo]>>sh | buf[p.hi]<<((64-sh)&63)) & p.mask
	}
	for i := range heads {
		h := &heads[i]
		x := out[i]
		for s := uint(h.w); s < uint(h.lim); s <<= 1 {
			x ^= x >> (s & 63)
		}
		out[i] = x & h.wMask
	}
}

// compose writes the packed vector prefix ++ (region << sh) into dst.
// Go's shifts by 64 yield zero, so prefixes of 0 and 64 bits need no
// special case.
func compose(dst []uint64, prefix uint64, region []uint64, sh uint) {
	if len(dst) == 0 {
		return
	}
	region = region[:len(dst)]
	dst[0] = prefix | region[0]<<sh
	for k := 1; k < len(dst); k++ {
		dst[k] = region[k]<<sh | region[k-1]>>(64-sh)
	}
}
