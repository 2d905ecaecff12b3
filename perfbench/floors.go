package main

import (
	"context"
	"errors"
	"io"
	"time"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// The floors run only in the traced run. Each isolates one cost, so a
// slowdown of the harness or of synthesis shows directly instead of
// being divided out by a calibration predictor.

// floorReps is how many times each floor repeats; the median is
// reported.
const floorReps = 5

// refKernelNS times a fixed CPU kernel that uses no repository code:
// a xorshift generator updating a small counter table. It is reported
// as a host-speed reference only and is never divided into any other
// metric.
func refKernelNS() float64 {
	const iters = 1 << 20
	var table [1024]uint32
	ds := make([]float64, floorReps)
	for r := range ds {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&1023] += uint32(x >> 60)
		}
		ds[r] = float64(time.Since(t0).Nanoseconds()) / iters
		refSink += table[x&1023]
	}
	return median(ds)
}

// refSink keeps the reference kernel's result live.
var refSink uint32

// drainNSPerRecord drains fresh readers from every source with no
// predictor attached: the cost of producing the records alone.
func drainNSPerRecord(srcs []sim.TraceSource) (float64, error) {
	buf := make([]trace.Record, 4096)
	ds := make([]float64, 0, floorReps)
	for range floorReps {
		var n uint64
		t0 := time.Now()
		for _, s := range srcs {
			r := trace.Batched(s.Open())
			for {
				k, err := r.ReadBatch(buf)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return 0, err
				}
				n += uint64(k)
			}
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ds), nil
}

// noopPredictor does no work, so a run with it costs only the harness.
type noopPredictor struct{}

func (noopPredictor) Name() string                { return "noop" }
func (noopPredictor) Predict(uint64) bool         { return false }
func (noopPredictor) Update(uint64, bool, uint64) {}

// harnessFloorNSPerBranch runs sim.RunContext with a no-op predictor
// over a pre-materialised record slice, so neither synthesis nor
// decoding nor a predictor contributes: the harness floor.
func harnessFloorNSPerBranch(ctx context.Context, recs trace.Slice, opt sim.Options) (float64, error) {
	ds := make([]float64, 0, floorReps)
	for range floorReps {
		t0 := time.Now()
		st, err := sim.RunContext(ctx, noopPredictor{}, recs.Stream(), opt)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/float64(st.Branches))
	}
	return median(ds), nil
}
