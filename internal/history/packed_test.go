package history

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests pinning the packed hot-path forms (BitVec, FoldWords,
// Ring.RecentTaken/RecentPC, FoldSet's table-driven Fold) to their naive
// reference definitions. Bit-exactness here is what guarantees the
// predictors' hash keys — and therefore the suite goldens — are
// unchanged by the packed rewrite.

// buildBoth appends the same random chunks to a BitVec and a []bool.
func buildBoth(rng *rand.Rand, chunks int) (*BitVec, []bool) {
	var v BitVec
	var bits []bool
	for c := 0; c < chunks; c++ {
		n := rng.Intn(65)
		w := rng.Uint64()
		v.Append(w, n)
		for i := 0; i < n; i++ {
			bits = append(bits, w>>uint(i)&1 != 0)
		}
	}
	return &v, bits
}

func TestBitVecMatchesBools(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		v, bits := buildBoth(rng, rng.Intn(12))
		if v.Len() != len(bits) {
			t.Fatalf("trial %d: Len=%d want %d", trial, v.Len(), len(bits))
		}
		for i, b := range bits {
			if v.Bit(i) != b {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, v.Bit(i), b)
			}
		}
		// Bits beyond Len must be zero — FoldWords relies on it.
		for wi, w := range v.Words() {
			for b := 0; b < 64; b++ {
				if wi*64+b >= v.Len() && w>>uint(b)&1 != 0 {
					t.Fatalf("trial %d: stray bit at %d past Len %d", trial, wi*64+b, v.Len())
				}
			}
		}
	}
}

func TestBitVecResetReuse(t *testing.T) {
	var v BitVec
	rng := rand.New(rand.NewSource(2))
	var ref []bool
	for round := 0; round < 50; round++ {
		v.Reset()
		ref = ref[:0]
		for c := 0; c < 6; c++ {
			n := rng.Intn(65)
			w := rng.Uint64()
			v.Append(w, n)
			for i := 0; i < n; i++ {
				ref = append(ref, w>>uint(i)&1 != 0)
			}
		}
		for i, b := range ref {
			if v.Bit(i) != b {
				t.Fatalf("round %d: bit %d = %v, want %v after Reset", round, i, v.Bit(i), b)
			}
		}
	}
}

// TestFoldWordsFullWidth pins the 64-bit fold (beyond FoldBits' range)
// to its definition: the XOR of consecutive 64-bit chunks, i.e. bit i
// lands at position i mod 64.
func TestFoldWordsFullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		v, bits := buildBoth(rng, 1+rng.Intn(8))
		var want uint64
		for i, b := range bits {
			if b {
				want ^= 1 << uint(i%64)
			}
		}
		if got := FoldWords(v.Words(), v.Len(), 64); got != want {
			t.Fatalf("trial %d: FoldWords(n=%d, w=64) = %#x, want %#x", trial, v.Len(), got, want)
		}
	}
}

func TestFoldWordsMatchesFoldBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		v, bits := buildBoth(rng, 1+rng.Intn(8))
		width := 1 + rng.Intn(30)
		// Fold a random prefix, not just the full vector: BF-TAGE folds
		// bits[:histLen] for each table.
		n := rng.Intn(len(bits) + 1)
		want := FoldBits(bits[:n], width)
		// FoldWords requires bits past n to be zero within the consumed
		// chunks only when n == v.Len(); for prefixes, mask a copy.
		var pv BitVec
		for i := 0; i < n; i++ {
			if bits[i] {
				pv.Append(1, 1)
			} else {
				pv.Append(0, 1)
			}
		}
		if got := FoldWords(pv.Words(), n, width); got != want {
			t.Fatalf("trial %d: FoldWords(n=%d, w=%d) = %#x, want %#x", trial, n, width, got, want)
		}
		// Full-length fold straight off the shared vector.
		if got := FoldWords(v.Words(), v.Len(), width); got != FoldBits(bits, width) {
			t.Fatalf("trial %d: full FoldWords(w=%d) mismatch", trial, width)
		}
	}
}

func TestFoldWordsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(raw []uint64, widthSeed uint8, nSeed uint16) bool {
		width := int(widthSeed%63) + 1
		total := len(raw) * 64
		n := 0
		if total > 0 {
			n = int(nSeed) % (total + 1)
		}
		words := append([]uint64(nil), raw...)
		// Zero bits past n, as BitVec guarantees.
		for i := n; i < total; i++ {
			words[i>>6] &^= 1 << uint(i&63)
		}
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = words[i>>6]>>uint(i&63)&1 != 0
		}
		return FoldWords(words, n, width) == FoldBits(bits, width)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRingRecentMatchesWalk(t *testing.T) {
	r := NewRing(64)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 500; step++ {
		r.Push(Entry{
			HashedPC:  rng.Uint32(),
			Taken:     rng.Intn(2) == 0,
			NonBiased: rng.Intn(2) == 0,
		})
		for _, n := range []int{0, 1, 7, 16, 33, 64} {
			var wantT, wantP uint64
			for d := 1; d <= n; d++ {
				if e, ok := r.At(d); ok {
					if e.Taken {
						wantT |= 1 << uint(d-1)
					}
					wantP |= uint64(e.HashedPC&1) << uint(d-1)
				}
			}
			if got := r.RecentTaken(n); got != wantT {
				t.Fatalf("step %d: RecentTaken(%d) = %#x, want %#x", step, n, got, wantT)
			}
			if got := r.RecentPC(n); got != wantP {
				t.Fatalf("step %d: RecentPC(%d) = %#x, want %#x", step, n, got, wantP)
			}
		}
	}
}

func TestFoldSetFoldMatchesScan(t *testing.T) {
	lengths := []int{3, 9, 17, 40, 90}
	const capacity = 128
	s := NewFoldSet(lengths, 11, capacity)
	rng := rand.New(rand.NewSource(5))
	// foldScan is the pre-table implementation: linear scan for the
	// largest maintained length <= distance.
	foldScan := func(distance int) uint64 {
		idx := -1
		for i, l := range lengths {
			if l <= distance {
				idx = i
			}
		}
		if idx < 0 {
			return 0
		}
		return s.FoldExact(idx)
	}
	for step := 0; step < 2000; step++ {
		s.Push(Entry{HashedPC: rng.Uint32(), Taken: rng.Intn(2) == 0})
		for _, d := range []int{-5, 0, 2, 3, 8, 9, 39, 40, 89, 90, capacity, capacity + 1, 100000} {
			want := uint64(0)
			if d >= 0 {
				want = foldScan(d)
			}
			if got := s.Fold(d); got != want {
				t.Fatalf("step %d: Fold(%d) = %#x, want %#x", step, d, got, want)
			}
		}
	}
}
