package rs

import (
	"errors"
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/state"
)

// TestStackStateRoundTrip drives a stack through hits, misses, and
// evictions, snapshots it, restores into a fresh stack, and checks the
// recency-list iteration is identical — the contract that makes
// restored BF predictors bit-exact.
func TestStackStateRoundTrip(t *testing.T) {
	s := NewStack(8, 12)
	// More unique PCs than depth forces evictions; revisits force hits
	// and relinks.
	pcs := []uint64{1, 2, 3, 4, 5, 2, 6, 7, 8, 9, 3, 10, 11, 2, 12}
	for i, pc := range pcs {
		s.Tick()
		s.Push(pc, i%3 == 0)
	}
	var e state.Enc
	s.SaveState(&e)

	r := NewStack(8, 12)
	d := decOf(e)
	if err := r.LoadState(d); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("leftover %d bytes", d.Remaining())
	}
	if r.Len() != s.Len() {
		t.Fatalf("len %d vs %d", r.Len(), s.Len())
	}
	it1, it2 := s.Iter(), r.Iter()
	for {
		a, ok1 := it1.Next()
		b, ok2 := it2.Next()
		if ok1 != ok2 {
			t.Fatal("iteration lengths differ")
		}
		if !ok1 {
			break
		}
		if a != b {
			t.Fatalf("iteration order differs: %+v vs %+v", a, b)
		}
	}

	// Byte stability: re-saving the restored stack reproduces the bytes.
	var e2 state.Enc
	r.SaveState(&e2)
	if d2 := decOf(e2); d2.Remaining() != decOf(e).Remaining() {
		t.Fatal("re-encoded size differs")
	}
	if string(encBytes(&e)) != string(encBytes(&e2)) {
		t.Fatal("stack snapshot is not byte-stable")
	}

	// The restored stack must evolve identically.
	for i, pc := range []uint64{2, 13, 1, 14} {
		s.Tick()
		r.Tick()
		s.Push(pc, i%2 == 0)
		r.Push(pc, i%2 == 0)
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != r.At(i) {
			t.Fatalf("divergence after resume at %d", i)
		}
	}
}

func TestSegmentedStateRoundTrip(t *testing.T) {
	mk := func() *Segmented { return NewSegmented([]int{1, 4, 12, 30}, 4) }
	s := mk()
	for i := 0; i < 200; i++ {
		s.Commit(history.Entry{
			HashedPC:  uint32(i%17 + 1),
			Taken:     i%3 != 0,
			NonBiased: i%2 == 0,
		})
	}
	var e state.Enc
	s.SaveState(&e)
	r := mk()
	if err := r.LoadState(decOf(e)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	var e2 state.Enc
	r.SaveState(&e2)
	if string(encBytes(&e)) != string(encBytes(&e2)) {
		t.Fatal("segmented snapshot is not byte-stable")
	}
	// Packed BF-GHR output and subsequent evolution must match.
	check := func(step int) {
		var g1, p1, g2, p2 history.BitVec
		s.AppendPacked(&g1, &p1)
		r.AppendPacked(&g2, &p2)
		if g1.Len() != g2.Len() {
			t.Fatalf("step %d: packed lengths differ", step)
		}
		for i := 0; i < g1.Len(); i++ {
			if g1.Bit(i) != g2.Bit(i) || p1.Bit(i) != p2.Bit(i) {
				t.Fatalf("step %d: packed bit %d differs", step, i)
			}
		}
	}
	check(-1)
	for i := 0; i < 100; i++ {
		en := history.Entry{HashedPC: uint32(i%11 + 3), Taken: i%5 != 0, NonBiased: i%3 != 0}
		s.Commit(en)
		r.Commit(en)
		if i%25 == 0 {
			check(i)
		}
	}
}

func TestStackLoadRejectsCorrupt(t *testing.T) {
	var e state.Enc
	e.U64(5) // seq
	e.U32(3) // 3 entries claimed...
	e.U64(7) // ...but only one present
	if err := NewStack(8, 12).LoadState(decOf(e)); !errors.Is(err, state.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}

	var dup state.Enc
	dup.U64(5)
	dup.U32(2)
	dup.U64(7)
	dup.Bool(true)
	dup.U64(1)
	dup.U64(7) // duplicate pc
	dup.Bool(false)
	dup.U64(2)
	if err := NewStack(8, 12).LoadState(decOf(dup)); !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on duplicate pc, got %v", err)
	}

	var over state.Enc
	over.U64(5)
	over.U32(99) // more entries than depth
	if err := NewStack(8, 12).LoadState(decOf(over)); !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on overflow, got %v", err)
	}
}

// decOf round-trips an encoder's payload through a one-section snapshot
// so tests decode exactly what predictors would.
func decOf(e state.Enc) *state.Dec {
	s := state.New("t", 0)
	enc := s.Section("x")
	*enc = e
	d, err := s.Dec("x")
	if err != nil {
		panic(err)
	}
	return d
}

func encBytes(e *state.Enc) []byte { return e.Data() }

// TestSegmentedLoadRejectsImpossibleSeqs hand-builds segmented snapshots
// whose slot sequence numbers Commit could never produce. Eviction relies
// on both invariants — only the tail expires, and the restored position
// minus the tail's seq must not underflow — so they must load as
// ErrCorrupt, while a consistent stack still loads.
func TestSegmentedLoadRejectsImpossibleSeqs(t *testing.T) {
	mk := func() *Segmented { return NewSegmented([]int{2, 6, 14}, 4) }
	type slot struct{ pc, seq uint64 }
	// image encodes position counter pos, an empty ring, segment 0 with
	// the given slots (most recent first) and an empty segment 1.
	image := func(pos uint64, slots ...slot) state.Enc {
		var e state.Enc
		e.U64(pos)
		mk().Ring().SaveState(&e)
		e.U32(2)
		e.U32(uint32(len(slots)))
		for _, s := range slots {
			e.U64(s.pc)
			e.Bool(true)
			e.U64(s.seq)
		}
		e.U32(0)
		return e
	}
	for _, c := range []struct {
		name    string
		img     state.Enc
		corrupt bool
	}{
		{"increasing seqs", image(20, slot{1, 10}, slot{2, 12}), true},
		{"equal seqs", image(20, slot{1, 10}, slot{2, 10}), true},
		{"seq past position", image(20, slot{1, 21}, slot{2, 12}), true},
		{"tail seq past position", image(5, slot{1, 6}), true},
		{"decreasing seqs", image(20, slot{1, 19}, slot{2, 18}, slot{3, 3}), false},
		{"seq at position", image(20, slot{1, 20}), false},
	} {
		err := mk().LoadState(decOf(c.img))
		if c.corrupt && !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("%s: LoadState = %v, want ErrCorrupt", c.name, err)
		}
		if !c.corrupt && err != nil {
			t.Errorf("%s: LoadState = %v, want success", c.name, err)
		}
	}
}
