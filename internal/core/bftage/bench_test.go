package bftage

import (
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// benchTrace generates a deterministic SPEC-like workload once per
// process for the throughput benchmarks.
var benchTrace trace.Slice

func getBenchTrace(b *testing.B) trace.Slice {
	b.Helper()
	if benchTrace == nil {
		for _, s := range workload.Traces() {
			if s.Name == "SPEC03" {
				benchTrace = s.GenerateN(100000)
				break
			}
		}
	}
	if benchTrace == nil {
		b.Skip("SPEC03 workload spec unavailable")
	}
	return benchTrace
}

// BenchmarkPredictUpdate measures the scalar Predict+Update path — the
// canonical per-branch cost when instrumentation (probes, delay queues,
// tracing) forces the simulator onto the generic loop.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Conventional(10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := tr[i%len(tr)]
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// BenchmarkSimulateBatch measures the speculative batch path the
// simulator uses when no instrumentation is attached.
func BenchmarkSimulateBatch(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Conventional(10))
	const batch = 4096
	preds := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if b.N-done < n {
			n = b.N - done
		}
		off := done % (len(tr) - batch)
		p.SimulateBatch(tr[off:off+n], preds[:n])
		done += n
	}
}

// BenchmarkFillKeys isolates the lookup-time fold index/tag computation
// for all tables of a bf-tage-10 predictor.
func BenchmarkFillKeys(b *testing.B) {
	p := New(Conventional(10))
	idx := make([]uint32, len(p.tables))
	tag := make([]uint32, len(p.tables))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.fillKeys(uint64(i)*0x9E3779B97F4A7C15, idx, tag)
	}
}

// BenchmarkFillKeysRef measures the retained scalar reference (rebuild
// the BF-GHR vectors, fold per table) for comparison.
func BenchmarkFillKeysRef(b *testing.B) {
	p := New(Conventional(10))
	idx := make([]uint32, len(p.tables))
	tag := make([]uint32, len(p.tables))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.fillKeysRef(uint64(i)*0x9E3779B97F4A7C15, idx, tag)
	}
}
