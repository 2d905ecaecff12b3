package tage_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bfbp/internal/core/bftage"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/sim"
	"bfbp/internal/state"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// kernelPredictor is what both kernel families expose to the harness.
type kernelPredictor interface {
	sim.Predictor
	sim.BatchSimulator
	sim.Snapshotter
}

// families covers both history providers, each with and without the
// statistical corrector and IUM.
var families = []struct {
	name string
	mk   func() kernelPredictor
}{
	{"tage-15", func() kernelPredictor { return tage.New(tage.ConventionalBare(15)) }},
	{"isl-tage-15", func() kernelPredictor { return tage.New(tage.Conventional(15)) }},
	{"bf-tage-10", func() kernelPredictor { return bftage.New(bftage.ConventionalBare(10)) }},
	{"bf-isl-tage-10", func() kernelPredictor { return bftage.New(bftage.Conventional(10)) }},
}

// spec03 synthesizes a deterministic mixed workload.
func spec03(t testing.TB, n int) trace.Slice {
	t.Helper()
	for _, s := range workload.Traces() {
		if s.Name == "SPEC03" {
			return s.GenerateN(n)
		}
	}
	t.Fatal("SPEC03 workload spec unavailable")
	return nil
}

func snapshot(t *testing.T, p sim.Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

// TestBatchMatchesScalar runs the same 20k-branch trace through the
// canonical Predict/Update pair and through SimulateBatch in ragged
// spans, requiring identical predictions at every branch and identical
// snapshot bytes at the end — the sim.BatchSimulator contract.
func TestBatchMatchesScalar(t *testing.T) {
	tr := spec03(t, 20000)
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			scalar, batched := f.mk(), f.mk()
			sizes := []int{1, 3, 17, 64, 256, 1000}
			preds := make([]bool, 1000)
			for off, si := 0, 0; off < len(tr); si++ {
				n := min(sizes[si%len(sizes)], len(tr)-off)
				batched.SimulateBatch(tr[off:off+n], preds[:n])
				for i := 0; i < n; i++ {
					rec := tr[off+i]
					want := scalar.Predict(rec.PC)
					scalar.Update(rec.PC, rec.Taken, rec.Target)
					if preds[i] != want {
						t.Fatalf("branch %d: batch predicted %v, scalar %v", off+i, preds[i], want)
					}
				}
				off += n
			}
			if !bytes.Equal(snapshot(t, scalar), snapshot(t, batched)) {
				t.Fatal("batch and scalar predictor snapshots differ")
			}
		})
	}
}

// TestSteadyStateAllocs drives each predictor past warmup and requires
// the scalar and batch hot paths to run allocation-free.
func TestSteadyStateAllocs(t *testing.T) {
	tr := spec03(t, 40000)
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			p := f.mk()
			for _, rec := range tr[:20000] {
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}
			i := 0
			if a := testing.AllocsPerRun(2000, func() {
				rec := tr[20000+i%10000]
				i++
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}); a > 0 {
				t.Errorf("scalar Predict+Update allocates %.1f per branch in steady state", a)
			}
			preds := make([]bool, 512)
			j := 0
			if a := testing.AllocsPerRun(20, func() {
				off := 20000 + (j*512)%10000
				j++
				p.SimulateBatch(tr[off:off+512], preds)
			}); a > 0 {
				t.Errorf("SimulateBatch allocates %.1f per span in steady state", a)
			}
		})
	}
}

// TestLoadRejectsOutOfRangeState corrupts one decoded value of a valid
// snapshot at a time and requires LoadState to refuse it with
// state.ErrCorrupt rather than restore a state no run can reach.
func TestLoadRejectsOutOfRangeState(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name    string
		section string
		corrupt func(b []byte)
	}{
		{"tag above mask", "table_0", func(b []byte) { le.PutUint16(b[0:], 0xFFFF) }},
		{"counter above 3", "table_0", func(b []byte) { b[2] = 100 }},
		{"counter below -4", "table_0", func(b []byte) { b[2] = 0xFB }},
		{"use-alt-on-NA above 15", "misc", func(b []byte) { le.PutUint32(b[0:], 16) }},
		{"use-alt-on-NA below 0", "misc", func(b []byte) { le.PutUint32(b[0:], 0xFFFFFFFF) }},
		{"tick negative", "misc", func(b []byte) { le.PutUint64(b[4:], 0xFFFFFFFFFFFFFFFF) }},
		{"tick at reset period", "misc", func(b []byte) { le.PutUint64(b[4:], 1<<18) }},
		{"loop confidence above 63", "misc", func(b []byte) { le.PutUint32(b[20:], 64) }},
		{"loop confidence below -64", "misc", func(b []byte) { le.PutUint32(b[20:], 0xFFFFFFBF) }},
		{"sc counter above 31", "sc", func(b []byte) { b[4] = 32 }},
		{"sc counter below -32", "sc", func(b []byte) { b[4] = 0xDF }},
	}
	for _, f := range []struct {
		name string
		mk   func() kernelPredictor
	}{
		{"isl-tage-4", func() kernelPredictor { return tage.New(tage.Conventional(4)) }},
		{"bf-isl-tage-4", func() kernelPredictor { return bftage.New(bftage.Conventional(4)) }},
	} {
		p := f.mk()
		if _, err := sim.Run(p, spec03(t, 3000).Stream(), sim.Options{}); err != nil {
			t.Fatal(err)
		}
		img := snapshot(t, p)
		if err := f.mk().LoadState(bytes.NewReader(img)); err != nil {
			t.Fatalf("%s: clean snapshot does not load: %v", f.name, err)
		}
		for _, c := range cases {
			s, err := state.Read(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(s.Section(c.section).Data())
			var bad bytes.Buffer
			if _, err := s.WriteTo(&bad); err != nil {
				t.Fatal(err)
			}
			if err := f.mk().LoadState(&bad); !errors.Is(err, state.ErrCorrupt) {
				t.Errorf("%s: %s: LoadState = %v, want ErrCorrupt", f.name, c.name, err)
			}
		}
	}
}
