package main

import "time"

// now is the benchmark's only wall-clock read. Every span, latency and
// deadline derives from it, so the one sanctioned site below is the
// whole of the benchmark's contact with real time.
func now() time.Time {
	//pomvet:allow wallclock a benchmark measures elapsed real time; nothing it reads feeds back into simulated state or results
	return time.Now()
}

// sinceMs returns the milliseconds elapsed from t0 to t1.
func sinceMs(t0, t1 time.Time) float64 { return float64(t1.Sub(t0)) / float64(time.Millisecond) }

// wallClock is the serve.Clock the benchmark's servers run on: the
// service reads it only for admission and snapshot staleness.
type wallClock struct{}

// Now implements serve.Clock.
func (wallClock) Now() time.Time { return now() }
