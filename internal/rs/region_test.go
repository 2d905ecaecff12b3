package rs

import (
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/state"
)

// checkRegion asserts that s's packed region words equal the AppendPacked
// reference vector on both channels, word for word, with every bit past
// Bits() zero (the spare word included).
func checkRegion(t *testing.T, s *Segmented, step int) {
	t.Helper()
	var vt, vp history.BitVec
	s.AppendPacked(&vt, &vp)
	rt, rp := s.Region()
	if len(rt) != (s.Bits()+63)/64+1 || len(rp) != len(rt) {
		t.Fatalf("step %d: region has %d/%d words for %d bits", step, len(rt), len(rp), s.Bits())
	}
	for k := range rt {
		var wt, wp uint64
		if k < len(vt.Words()) {
			wt, wp = vt.Words()[k], vp.Words()[k]
		}
		if rt[k] != wt || rp[k] != wp {
			t.Fatalf("step %d word %d: region %#x/%#x, AppendPacked %#x/%#x", step, k, rt[k], rp[k], wt, wp)
		}
	}
}

// TestSegmentedRegionMatchesAppendPacked drives a random commit stream
// through segmented stacks of several geometries — segment sizes that
// divide 64 and ones whose segments straddle word boundaries — and checks
// the incrementally maintained region against the AppendPacked reference
// after every commit, and again after a save/load round trip into a fresh
// instance that then keeps running in lockstep.
func TestSegmentedRegionMatchesAppendPacked(t *testing.T) {
	for _, geo := range []struct {
		bounds  []int
		segSize int
	}{
		{[]int{4, 8, 16, 32, 64}, 8},
		{[]int{2, 5, 9, 17, 30, 47, 80, 120, 170, 240, 330}, 7}, // segment 9 spans bits 63..69
		{[]int{4, 8, 16, 32, 64}, 24},                           // segment 2 spans bits 48..71
		{[]int{1, 3, 6, 12, 24}, 64},
		{[]int{3, 7, 20}, 1},
	} {
		s := NewSegmented(geo.bounds, geo.segSize)
		r := rng.New(0x0B5E + uint64(geo.segSize))
		entry := func() history.Entry {
			return history.Entry{
				HashedPC:  r.Uint32() & 0x3F,
				Taken:     r.Intn(2) == 0,
				NonBiased: r.Intn(3) != 0,
			}
		}
		for step := 0; step < 2000; step++ {
			s.Commit(entry())
			checkRegion(t, s, step)
		}
		var e state.Enc
		s.SaveState(&e)
		l := NewSegmented(geo.bounds, geo.segSize)
		// Dirty the destination first: the load must rebuild the region,
		// not merge into it.
		for i := 0; i < 50; i++ {
			l.Commit(history.Entry{HashedPC: uint32(i), Taken: true, NonBiased: true})
		}
		if err := l.LoadState(decOf(e)); err != nil {
			t.Fatalf("segSize %d: LoadState: %v", geo.segSize, err)
		}
		checkRegion(t, l, -1)
		for step := 0; step < 500; step++ {
			en := entry()
			s.Commit(en)
			l.Commit(en)
			checkRegion(t, l, step)
			a, b := s.Region()
			c, d := l.Region()
			for k := range a {
				if a[k] != c[k] || b[k] != d[k] {
					t.Fatalf("segSize %d step %d: restored region diverged at word %d", geo.segSize, step, k)
				}
			}
		}
	}
}
