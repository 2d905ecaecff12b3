package main

import (
	"sort"
	"time"
)

// interval is one cell's execution, as offsets from the start of the
// engine run that executed it.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the time its children cover. The
// children of a cell span (reader and predictor calls, checkpoint
// saves) run one after another on the cell's goroutine, so the time
// they cover is the sum of their durations. Sampled child estimates can
// overshoot a short span, so the result is clamped at zero.
func selfTime(span time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		span -= c
	}
	return max(span, 0)
}

// busyFrac is the total cell time over the time the workers had:
// workers × wall.
func busyFrac(cells []interval, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, c := range cells {
		busy += c.end - c.start
	}
	return float64(busy) / (float64(workers) * float64(wall))
}

// tailTime is the time at the end of a run of length wall during which
// fewer than workers cells were running: wall minus the last moment all
// workers were busy. A run that never kept every worker busy is all
// tail.
func tailTime(cells []interval, workers int, wall time.Duration) time.Duration {
	type event struct {
		at    time.Duration
		delta int
	}
	evs := make([]event, 0, 2*len(cells))
	for _, c := range cells {
		evs = append(evs, event{c.start, +1}, event{c.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var lastFull time.Duration
	running := 0
	for i := 0; i < len(evs); {
		at := evs[i].at
		// running is the concurrency since the previous event time.
		if running >= workers {
			lastFull = at
		}
		for ; i < len(evs) && evs[i].at == at; i++ {
			running += evs[i].delta
		}
	}
	return max(wall-lastFull, 0)
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
