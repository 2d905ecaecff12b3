package history

import (
	"testing"

	"bfbp/internal/rng"
)

// composeVec builds the vector a FoldFamily channel models: prefixBits
// bits of prefix followed by regionBits bits of region.
func composeVec(prefix uint64, prefixBits int, region []uint64, regionBits int) *BitVec {
	var v BitVec
	v.Append(prefix, prefixBits)
	for k := 0; k < regionBits; k += 64 {
		v.Append(region[k/64], min(64, regionBits-k))
	}
	return &v
}

// randomRegion returns regionBits random bits packed in the rs.Segmented
// layout: zero beyond regionBits, one spare zero word at the end.
func randomRegion(r *rng.SplitMix64, regionBits int) []uint64 {
	w := make([]uint64, (regionBits+63)/64+1)
	for k := 0; k < regionBits; k += 64 {
		w[k/64] = r.Uint64() & lowMask(regionBits-k)
	}
	return w
}

// checkFold asserts every register of f agrees with the FoldWords
// reference over its channel's vector.
func checkFold(t *testing.T, f *FoldFamily, regs []Register, prefix [2]uint64, region [2][]uint64, prefixBits, regionBits int) {
	t.Helper()
	vecs := [2]*BitVec{
		composeVec(prefix[0], prefixBits, region[0], regionBits),
		composeVec(prefix[1], prefixBits, region[1], regionBits),
	}
	out := make([]uint64, len(regs))
	f.Fold(prefix[0], prefix[1], region[0], region[1], out)
	for id, r := range regs {
		if want := FoldWords(vecs[r.Ch].Words(), r.N, r.W); out[id] != want {
			t.Fatalf("prefix %d region %d: register %d (ch=%d n=%d w=%d): Fold %#x, FoldWords %#x",
				prefixBits, regionBits, id, r.Ch, r.N, r.W, out[id], want)
		}
	}
}

// TestFoldFamilyEquivalence checks random register families on both
// channels against FoldWords over random vectors: prefixes 0–64, segment
// sizes 1–64 (the region is a whole number of segments), widths 1–64 and
// lengths up to the full vector, with distinct prefixes and regions per
// channel — the bit-exactness property BF-TAGE and BF-GEHL rely on.
func TestFoldFamilyEquivalence(t *testing.T) {
	r := rng.New(0xF01D)
	for trial := 0; trial < 400; trial++ {
		prefixBits := r.Intn(65)  // 0..64
		segSize := 1 + r.Intn(64) // 1..64
		numSegs := 1 + r.Intn(20) // 1..20
		regionBits := numSegs * segSize
		total := prefixBits + regionBits
		var regs []Register
		for i := 0; i < 1+r.Intn(12); i++ {
			n := 1 + r.Intn(total)
			switch r.Intn(4) {
			case 0:
				n = total // the full vector
			case 1:
				n = min(total, 64*(1+r.Intn(4))) // a word boundary
			}
			regs = append(regs, Register{Ch: r.Intn(2), N: n, W: 1 + r.Intn(64)})
		}
		f := NewFoldFamily(prefixBits, regionBits, regs)
		for step := 0; step < 20; step++ {
			checkFold(t, f, regs, [2]uint64{r.Uint64(), r.Uint64()},
				[2][]uint64{randomRegion(r, regionBits), randomRegion(r, regionBits)}, prefixBits, regionBits)
		}
	}
}

// TestFoldFamilyExhaustiveGeometry sweeps every prefix width and segment
// size with full-length registers of every width, so no geometry the
// constructors accept is left to chance.
func TestFoldFamilyExhaustiveGeometry(t *testing.T) {
	r := rng.New(0xF02D)
	for prefixBits := 0; prefixBits <= 64; prefixBits++ {
		for segSize := 1; segSize <= 64; segSize++ {
			regionBits := 3 * segSize
			total := prefixBits + regionBits
			var regs []Register
			for w := 1; w <= 64; w++ {
				regs = append(regs, Register{Ch: w & 1, N: total, W: w}, Register{Ch: 0, N: 1 + r.Intn(total), W: w})
			}
			f := NewFoldFamily(prefixBits, regionBits, regs)
			checkFold(t, f, regs, [2]uint64{r.Uint64(), r.Uint64()},
				[2][]uint64{randomRegion(r, regionBits), randomRegion(r, regionBits)}, prefixBits, regionBits)
		}
	}
}

// TestFoldFamilyShortRegisters pins registers that never reach the
// region: their fold must be a pure function of the prefix.
func TestFoldFamilyShortRegisters(t *testing.T) {
	regs := []Register{
		{N: 10, W: 7},  // entirely inside the prefix
		{N: 16, W: 12}, // exactly the prefix
		{N: 17, W: 12}, // one bit into the region
	}
	f := NewFoldFamily(16, 32, regs)
	region := []uint64{0xFF0000FF, 0}
	out := make([]uint64, len(regs))
	f.Fold(0, 0, region, nil, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("prefix-only registers folded region bits: %#x %#x", out[0], out[1])
	}
	if out[2] == 0 {
		t.Fatal("region-covering register ignored region bits")
	}
	checkFold(t, f, regs, [2]uint64{0xBEEF, 0}, [2][]uint64{region, make([]uint64, 2)}, 16, 32)
}

// TestFoldFamilyNarrowWidths exercises widths smaller than the segment
// size over the paper's BF-GHR geometry, where one 64-bit word wraps many
// times around a register and pieces are shorter than a word.
func TestFoldFamilyNarrowWidths(t *testing.T) {
	r := rng.New(0xF03D)
	var regs []Register
	for _, nw := range [][2]int{{144, 1}, {144, 2}, {144, 3}, {100, 5}, {77, 6}} {
		regs = append(regs, Register{Ch: 0, N: nw[0], W: nw[1]}, Register{Ch: 1, N: nw[0], W: nw[1]})
	}
	f := NewFoldFamily(16, 128, regs)
	for step := 0; step < 200; step++ {
		checkFold(t, f, regs, [2]uint64{r.Uint64(), r.Uint64()},
			[2][]uint64{randomRegion(r, 128), randomRegion(r, 128)}, 16, 128)
	}
}
