package tage_test

import "testing"

// benchFamilies are the TAGE-family predictors the throughput benchmarks
// run side by side on one trace: conventional ISL-TAGE with 15 tables and
// the paper's 10-table BF-TAGE, whose per-branch ratio is the flagship
// cost target.
var benchFamilies = map[string]bool{"isl-tage-15": true, "bf-tage-10": true}

// BenchmarkPredictUpdate measures the scalar Predict+Update path — the
// per-branch cost when instrumentation forces the simulator onto the
// generic loop.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := spec03(b, 100000)
	for _, f := range families {
		if !benchFamilies[f.name] {
			continue
		}
		b.Run(f.name, func(b *testing.B) {
			p := f.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := tr[i%len(tr)]
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}
		})
	}
}

// BenchmarkSimulateBatch measures the fused batch path the simulator uses
// when no instrumentation is attached.
func BenchmarkSimulateBatch(b *testing.B) {
	tr := spec03(b, 100000)
	const batch = 4096
	preds := make([]bool, batch)
	for _, f := range families {
		if !benchFamilies[f.name] {
			continue
		}
		b.Run(f.name, func(b *testing.B) {
			p := f.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := min(batch, b.N-done)
				off := done % (len(tr) - batch)
				p.SimulateBatch(tr[off:off+n], preds[:n])
				done += n
			}
		})
	}
}
