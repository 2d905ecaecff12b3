package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeSubtractsChildren(t *testing.T) {
	cases := []struct {
		span     time.Duration
		children []time.Duration
		want     time.Duration
	}{
		{100 * ms, nil, 100 * ms},
		{100 * ms, []time.Duration{30 * ms, 20 * ms}, 50 * ms},
		{100 * ms, []time.Duration{60 * ms, 40 * ms}, 0},
		// A sampled estimate can overshoot a short span.
		{10 * ms, []time.Duration{8 * ms, 5 * ms}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.span, c.children...); got != c.want {
			t.Errorf("selfTime(%v, %v) = %v, want %v", c.span, c.children, got, c.want)
		}
	}
}

func TestBusyFracAndTailOnSyntheticSchedule(t *testing.T) {
	// Two workers over a 100 ms run:
	//   worker 0: [0,40) [40,70) [70,100)
	//   worker 1: [0,50) [50,60)
	// Both busy until 60 ms, then only worker 0: the tail is 40 ms.
	cells := []interval{
		{0, 40 * ms}, {40 * ms, 70 * ms}, {70 * ms, 100 * ms},
		{0, 50 * ms}, {50 * ms, 60 * ms},
	}
	if got, want := busyFrac(cells, 2, 100*ms), 160.0/200.0; got != want {
		t.Errorf("busyFrac = %v, want %v", got, want)
	}
	if got := tailTime(cells, 2, 100*ms); got != 40*ms {
		t.Errorf("tailTime = %v, want 40ms", got)
	}
	// A gap while both are busy earlier does not end the full stretch.
	gappy := []interval{{0, 30 * ms}, {31 * ms, 90 * ms}, {0, 80 * ms}}
	if got := tailTime(gappy, 2, 90*ms); got != 10*ms {
		t.Errorf("tailTime with an early gap = %v, want 10ms", got)
	}
	// One cell on two workers never fills the pool: all tail.
	if got := tailTime([]interval{{0, 50 * ms}}, 2, 50*ms); got != 50*ms {
		t.Errorf("tailTime with one cell = %v, want 50ms", got)
	}
	// Every worker busy to the end: no tail.
	if got := tailTime([]interval{{0, 50 * ms}, {0, 50 * ms}}, 2, 50*ms); got != 0 {
		t.Errorf("tailTime with a full schedule = %v, want 0", got)
	}
	if got := busyFrac(nil, 2, 0); got != 0 {
		t.Errorf("busyFrac of an empty run = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
