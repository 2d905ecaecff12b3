package ohsnap

import (
	"testing"

	"bfbp/internal/trace"
)

var benchTrace trace.Slice

func getBenchTrace(b *testing.B) trace.Slice {
	b.Helper()
	if benchTrace == nil {
		benchTrace = genTrace(b, "SPEC03", 100000)
	}
	return benchTrace
}

// BenchmarkPredictUpdate measures the scalar Predict+Update path.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Default64KB())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := tr[i%len(tr)]
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// BenchmarkSimulateBatch measures the fused batch path the harness uses
// when the hot loop is uninstrumented.
func BenchmarkSimulateBatch(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Default64KB())
	const batch = 4096
	preds := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(batch, b.N-done)
		off := done % (len(tr) - batch)
		p.SimulateBatch(tr[off:off+n], preds[:n])
		done += n
	}
}
