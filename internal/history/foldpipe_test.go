package history

import (
	"testing"

	"bfbp/internal/rng"
)

// composeVec builds the composite bit vector a FoldPipeline models:
// prefixBits bits of prefix followed by one segSize-bit word per segment.
func composeVec(prefix uint64, prefixBits int, segs []uint64, segSize int) *BitVec {
	var v BitVec
	v.Append(prefix&lowMask(prefixBits), prefixBits)
	for _, w := range segs {
		v.Append(w&lowMask(segSize), segSize)
	}
	return &v
}

// checkPipeline asserts every register agrees with the FoldWords
// reference over its channel's composite vector (prefix[ch] followed by
// segs[ch]).
func checkPipeline(t *testing.T, p *FoldPipeline, regs []Register, prefix [2]uint64, segs [2][]uint64, prefixBits, segSize int) {
	t.Helper()
	vecs := [2]*BitVec{
		composeVec(prefix[0], prefixBits, segs[0], segSize),
		composeVec(prefix[1], prefixBits, segs[1], segSize),
	}
	all := make([]uint64, len(regs))
	p.FoldAll2(prefix[0], prefix[1], all)
	for id, r := range regs {
		if want := FoldWords(vecs[r.Ch].Words(), r.N, r.W); all[id] != want {
			t.Fatalf("register %d (ch=%d n=%d w=%d): FoldAll2 %#x, FoldWords %#x", id, r.Ch, r.N, r.W, all[id], want)
		}
	}
}

// mutate replaces segment s's words on both channels with random values
// of segSize bits, feeding the pipeline the XOR deltas.
func mutate(r *rng.SplitMix64, p *FoldPipeline, segs [2][]uint64, s, segSize int) {
	n0 := r.Uint64() & lowMask(segSize)
	n1 := r.Uint64() & lowMask(segSize)
	p.SegmentDelta2(s, segs[0][s]^n0, segs[1][s]^n1)
	segs[0][s], segs[1][s] = n0, n1
}

// TestFoldPipelineEquivalence drives random segment mutations through
// pipelines of random geometry — segment sizes and register widths up
// to 64, registers on both channels — and checks every register against
// FoldWords after each step, with distinct live prefixes per channel:
// the bit-exactness property BF-TAGE and BF-GEHL rely on.
func TestFoldPipelineEquivalence(t *testing.T) {
	r := rng.New(0xF01D)
	for trial := 0; trial < 200; trial++ {
		prefixBits := r.Intn(65)  // 0..64
		segSize := 1 + r.Intn(64) // 1..64
		numSegs := 1 + r.Intn(20) // 1..20
		total := prefixBits + numSegs*segSize
		var regs []Register
		for i := 0; i < 1+r.Intn(8); i++ {
			regs = append(regs, Register{Ch: r.Intn(2), N: 1 + r.Intn(total), W: 1 + r.Intn(64)})
		}
		p := NewFoldPipeline(prefixBits, segSize, numSegs, regs)
		segs := [2][]uint64{make([]uint64, numSegs), make([]uint64, numSegs)}
		for step := 0; step < 60; step++ {
			// Mutate one segment on both channels (the pipeline sees the
			// XOR deltas) and churn the prefixes (the pipeline never sees
			// them — FoldAll2 takes them live).
			mutate(r, p, segs, r.Intn(numSegs), segSize)
			checkPipeline(t, p, regs, [2]uint64{r.Uint64(), r.Uint64()}, segs, prefixBits, segSize)
		}
	}
}

// TestFoldPipelineRebuild checks that Reset + feeding each segment's
// absolute words reproduces the incrementally maintained register folds
// — the snapshot-restore path.
func TestFoldPipelineRebuild(t *testing.T) {
	r := rng.New(0xF02D)
	const (
		prefixBits = 16
		segSize    = 8
		numSegs    = 16
	)
	var regs []Register
	for _, nw := range [][2]int{{3, 10}, {8, 8}, {14, 13}, {26, 11}, {40, 12}, {70, 9}, {118, 14}, {142, 12}} {
		regs = append(regs, Register{Ch: 0, N: nw[0], W: nw[1]}, Register{Ch: 1, N: nw[0], W: nw[1] - 1})
	}
	p := NewFoldPipeline(prefixBits, segSize, numSegs, regs)
	segs := [2][]uint64{make([]uint64, numSegs), make([]uint64, numSegs)}
	for step := 0; step < 500; step++ {
		mutate(r, p, segs, r.Intn(numSegs), segSize)
	}
	incremental := append([]uint64(nil), p.vals...)
	p.Reset()
	for s := range segs[0] {
		p.SegmentDelta2(s, segs[0][s], segs[1][s])
	}
	for id, v := range p.vals {
		if v != incremental[id] {
			t.Fatalf("register %d: rebuilt fold %#x, incremental %#x", id, v, incremental[id])
		}
	}
	checkPipeline(t, p, regs, [2]uint64{r.Uint64(), r.Uint64()}, segs, prefixBits, segSize)
}

// TestFoldPipelineShortRegisters pins registers that never reach the
// segment region: their fold must be the pure prefix fold and segment
// mutations must not disturb them.
func TestFoldPipelineShortRegisters(t *testing.T) {
	const short, exact, long = 0, 1, 2
	regs := []Register{
		{N: 10, W: 7},  // entirely inside the prefix
		{N: 16, W: 12}, // exactly the prefix
		{N: 17, W: 12}, // one bit into segment 0
	}
	p := NewFoldPipeline(16, 8, 4, regs)
	p.SegmentDelta2(0, 0xFF, 0)
	p.SegmentDelta2(3, 0xFF, 0)
	prefix := uint64(0xBEEF)
	segs := []uint64{0xFF, 0, 0, 0xFF}
	checkPipeline(t, p, regs, [2]uint64{prefix, prefix}, [2][]uint64{segs, make([]uint64, 4)}, 16, 8)
	// Prefix-only registers must be a pure function of the prefix: with a
	// zero prefix they fold to zero no matter what the segments hold.
	out := make([]uint64, len(regs))
	p.FoldAll(0, out)
	if out[short] != 0 {
		t.Fatalf("prefix-only register folded segment bits: %#x", out[short])
	}
	if out[exact] != 0 {
		t.Fatalf("prefix-exact register folded segment bits: %#x", out[exact])
	}
	if out[long] == 0 {
		t.Fatal("segment-covering register ignored segment bits")
	}
}

// TestFoldPipelineNarrowWidths exercises widths smaller than the segment
// size, where one segment word wraps multiple times around a register.
func TestFoldPipelineNarrowWidths(t *testing.T) {
	r := rng.New(0xF03D)
	var regs []Register
	for _, nw := range [][2]int{{144, 1}, {144, 2}, {144, 3}, {100, 5}, {77, 6}} {
		regs = append(regs, Register{Ch: 0, N: nw[0], W: nw[1]}, Register{Ch: 1, N: nw[0], W: nw[1]})
	}
	p := NewFoldPipeline(16, 8, 16, regs)
	segs := [2][]uint64{make([]uint64, 16), make([]uint64, 16)}
	for step := 0; step < 200; step++ {
		mutate(r, p, segs, r.Intn(16), 8)
		checkPipeline(t, p, regs, [2]uint64{r.Uint64(), r.Uint64()}, segs, 16, 8)
	}
}
