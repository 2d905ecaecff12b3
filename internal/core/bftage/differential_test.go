package bftage

import (
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// diffTrace synthesizes a deterministic mixed workload for the
// differential tests.
func diffTrace(t *testing.T, n int) trace.Slice {
	t.Helper()
	for _, s := range workload.Traces() {
		if s.Name == "SPEC03" {
			return s.GenerateN(n)
		}
	}
	t.Fatal("SPEC03 workload spec unavailable")
	return nil
}

// TestFillKeysDifferential drives 20k branches through the flagship
// bf-tage-10 configuration and, at every step, computes every table's
// index and tag through the fold pipeline and through the retained
// buildGHR+FoldWords scalar reference, requiring bit-identical results.
// This pins the XOR-delta register maintenance across segment
// evictions, boundary crossings, and snapshot-depth histories.
func TestFillKeysDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	p := New(Conventional(10))
	n := len(p.tables)
	idx := make([]uint32, n)
	tag := make([]uint32, n)
	idxRef := make([]uint32, n)
	tagRef := make([]uint32, n)
	for i, rec := range tr {
		p.fillKeys(rec.PC, idx, tag)
		p.fillKeysRef(rec.PC, idxRef, tagRef)
		for j := 0; j < n; j++ {
			if idx[j] != idxRef[j] || tag[j] != tagRef[j] {
				t.Fatalf("step %d table %d: pipeline idx/tag %d/%#x, ref %d/%#x",
					i, j, idx[j], tag[j], idxRef[j], tagRef[j])
			}
		}
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}
