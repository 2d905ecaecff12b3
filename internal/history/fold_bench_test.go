package history

import "testing"

// tageShapedRegisters is the register family of the flagship bf-tage-10
// geometry: per table, index / tag / tag-1 folds on channel 0 and an
// address fold on channel 1.
func tageShapedRegisters() []Register {
	hist := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	logE := []int{11, 11, 11, 12, 12, 12, 11, 11, 10, 10}
	tagB := []int{7, 7, 8, 9, 10, 11, 11, 13, 14, 15}
	var regs []Register
	for i := range hist {
		regs = append(regs,
			Register{Ch: 0, N: hist[i], W: logE[i]},
			Register{Ch: 0, N: hist[i], W: tagB[i]},
			Register{Ch: 0, N: hist[i], W: max(tagB[i]-1, 1)},
			Register{Ch: 1, N: hist[i], W: max(logE[i]-1, 1)})
	}
	return regs
}

// BenchmarkFoldFamily measures one lookup-time fold of the bf-tage-10
// register family over the paper's BF-GHR (16 unfiltered bits, 16
// segments of 8 slots) on both channels.
func BenchmarkFoldFamily(b *testing.B) {
	regs := tageShapedRegisters()
	f := NewFoldFamily(16, 128, regs)
	r0 := []uint64{0x0123456789ABCDEF, 0xFEDCBA9876543210, 0}
	r1 := []uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0}
	out := make([]uint64, len(regs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Fold(uint64(i)*0x9E3779B97F4A7C15, uint64(i)*0xC2B2AE3D27D4EB4F, r0, r1, out)
	}
}

// BenchmarkFoldWordsReference folds the same register family from a
// rebuilt 144-bit vector with FoldWords — the scalar reference path.
func BenchmarkFoldWordsReference(b *testing.B) {
	regs := tageShapedRegisters()
	words := []uint64{0x0123456789ABCDEF, 0xFEDCBA9876543210, 0xFFFF}
	out := make([]uint64, 0, len(regs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words[0] ^= uint64(i)
		out = out[:0]
		for _, r := range regs {
			out = append(out, FoldWords(words, r.N, r.W))
		}
	}
	_ = out
}
