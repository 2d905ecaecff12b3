package ohsnap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bfbp/internal/sim"
	"bfbp/internal/state"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// genTrace synthesizes n branches of the named workload trace.
func genTrace(t testing.TB, name string, n int) trace.Slice {
	t.Helper()
	for _, s := range workload.Traces() {
		if s.Name == name {
			return s.GenerateN(n)
		}
	}
	t.Fatalf("%s workload spec unavailable", name)
	return nil
}

func snapshot(t *testing.T, p *Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

// drain resolves every in-flight prediction in issue order.
func drain(p *Predictor) {
	for p.pendStart < len(p.pending) {
		p.Update(p.pending[p.pendStart].pc, false, 0)
	}
}

// TestBatchMatchesScalar runs each trace through the canonical
// Predict/Update pair and through SimulateBatch in ragged spans,
// requiring identical predictions at every branch and identical snapshot
// bytes at the end — the sim.BatchSimulator contract. The in-flight
// variant issues a Predict before some spans, so SimulateBatch starts
// with a checkpoint outstanding and must take the canonical fallback;
// both predictors drain their FIFO after such a span.
func TestBatchMatchesScalar(t *testing.T) {
	for _, name := range []string{"SPEC03", "FP2", "INT3", "MM2", "SERV1"} {
		tr := genTrace(t, name, 20000)
		for _, inFlight := range []bool{false, true} {
			scalar, batched := New(Default64KB()), New(Default64KB())
			sizes := []int{1, 3, 17, 64, 256, 1000}
			preds := make([]bool, 1000)
			for off, si := 0, 0; off < len(tr); si++ {
				n := min(sizes[si%len(sizes)], len(tr)-off)
				issued := inFlight && si%4 == 1
				if issued {
					pc := tr[off].PC
					if s, b := scalar.Predict(pc), batched.Predict(pc); s != b {
						t.Fatalf("%s branch %d: in-flight predictions differ", name, off)
					}
				}
				batched.SimulateBatch(tr[off:off+n], preds[:n])
				for i := 0; i < n; i++ {
					rec := tr[off+i]
					want := scalar.Predict(rec.PC)
					scalar.Update(rec.PC, rec.Taken, rec.Target)
					if preds[i] != want {
						t.Fatalf("%s in-flight=%v branch %d: batch predicted %v, scalar %v",
							name, inFlight, off+i, preds[i], want)
					}
				}
				if issued {
					drain(scalar)
					drain(batched)
				}
				off += n
			}
			if !bytes.Equal(snapshot(t, scalar), snapshot(t, batched)) {
				t.Fatalf("%s in-flight=%v: batch and scalar snapshots differ", name, inFlight)
			}
		}
	}
}

// TestSteadyStateAllocs drives the predictor past warmup and requires
// the scalar and batch hot paths to run allocation-free.
func TestSteadyStateAllocs(t *testing.T) {
	tr := genTrace(t, "SPEC03", 40000)
	p := New(Default64KB())
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
}

// TestLoadRejectsOutOfRangeState rewrites the misc section (theta, then
// the threshold counter tc, as little-endian int32s) of a valid snapshot
// and requires LoadState to refuse values train can never produce with
// state.ErrCorrupt, while the extremes it can produce still load.
func TestLoadRejectsOutOfRangeState(t *testing.T) {
	p := New(Default64KB())
	if _, err := sim.Run(p, genTrace(t, "SPEC07", 3000).Stream(), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	img := snapshot(t, p)
	for _, c := range []struct {
		name      string
		theta, tc int32
		corrupt   bool
	}{
		{"theta 0", 0, 0, true},
		{"theta -16", -16, 0, true},
		{"tc 1000", 100, 1000, true},
		{"tc -1000", 100, -1000, true},
		{"tc 64", 100, 64, true},
		{"tc -64", 100, -64, true},
		{"theta 1", 1, 0, false},
		{"tc 63", 100, 63, false},
		{"tc -63", 100, -63, false},
	} {
		s, err := state.Read(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		misc := s.Section("misc").Data()
		binary.LittleEndian.PutUint32(misc[0:], uint32(c.theta))
		binary.LittleEndian.PutUint32(misc[4:], uint32(c.tc))
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		err = New(Default64KB()).LoadState(&buf)
		if c.corrupt && !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("%s: LoadState = %v, want ErrCorrupt", c.name, err)
		}
		if !c.corrupt && err != nil {
			t.Errorf("%s: LoadState = %v, want success", c.name, err)
		}
	}
}
