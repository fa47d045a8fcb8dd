package ode

import (
	"errors"
	"sort"
)

// Past gives delay-differential right-hand sides access to the solution
// history. Times before the initial time evaluate the prehistory function;
// times inside the integrated range evaluate dense output; times beyond the
// last accepted step extrapolate the final segment (the standard treatment
// of vanishing delays in explicit DDE solvers).
type Past interface {
	// Eval returns state component j at time t.
	Eval(j int, t float64) float64
}

// DelayFunc is the right-hand side of a delay differential equation
// y'(t) = f(t, y(t), y(past)).
type DelayFunc func(t float64, y []float64, past Past, dydt []float64)

// History stores accepted dense segments and the prehistory function. It
// implements Past.
type History struct {
	t0   float64
	pre  func(j int, t float64) float64
	segs []*DenseSegment
	// Pool, when non-nil, receives the segments Compact retires, so the
	// solver can reuse them instead of allocating fresh ones each step.
	Pool *SegmentPool
}

// NewHistory creates a history starting at t0 with the given prehistory
// (used for t <= t0). A nil prehistory holds the initial state constant;
// it must be set before the first Eval via SetPrehistory or Push.
func NewHistory(t0 float64, prehistory func(j int, t float64) float64) *History {
	return &History{t0: t0, pre: prehistory}
}

// SetPrehistory replaces the prehistory function.
func (h *History) SetPrehistory(pre func(j int, t float64) float64) { h.pre = pre }

// Push appends an accepted dense segment. Segments must be contiguous and
// increasing in time.
func (h *History) Push(seg *DenseSegment) { h.segs = append(h.segs, seg) }

// Len returns the number of stored segments.
func (h *History) Len() int { return len(h.segs) }

// End returns the time up to which the history is known.
func (h *History) End() float64 {
	if len(h.segs) == 0 {
		return h.t0
	}
	return h.segs[len(h.segs)-1].End()
}

// Eval implements Past.
func (h *History) Eval(j int, t float64) float64 {
	if t <= h.t0 || len(h.segs) == 0 {
		if h.pre != nil {
			return h.pre(j, t)
		}
		if len(h.segs) > 0 {
			return h.segs[0].EvalComponent(j, h.t0)
		}
		return 0
	}
	// Binary search for the segment containing t; extrapolate the last
	// segment for t beyond the known range (vanishing delay).
	idx := sort.Search(len(h.segs), func(i int) bool { return h.segs[i].End() >= t })
	if idx >= len(h.segs) {
		idx = len(h.segs) - 1
	}
	return h.segs[idx].EvalComponent(j, t)
}

// Compact drops segments that end before tmin, bounding memory for long
// integrations with bounded delays. Dropped segments are recycled through
// the history's Pool when one is attached.
func (h *History) Compact(tmin float64) {
	cut := 0
	for cut < len(h.segs)-1 && h.segs[cut].End() < tmin {
		cut++
	}
	if cut > 0 {
		if h.Pool != nil {
			for _, seg := range h.segs[:cut] {
				h.Pool.Put(seg)
			}
		}
		h.segs = append(h.segs[:0], h.segs[cut:]...)
	}
}

// DDEOptions configures SolveDDE. The sample plan is required and
// validated exactly like SolveOptions: strictly increasing times inside
// [t0, t1] and a nonnegative NSamples, or a clear error before
// integration starts.
type DDEOptions struct {
	// SampleAt and NSamples define the sample plan; see
	// SolveOptions.SampleAt.
	SampleAt func(k int) float64
	// NSamples is the number of samples SampleAt produces.
	NSamples int
	// SampleFunc receives the output rows; see SolveOptions.SampleFunc.
	SampleFunc func(t float64, y []float64)
	// Prehistory defines y(t) for t <= t0; nil holds y0 constant.
	Prehistory func(j int, t float64) float64
	// MaxDelay, when positive, lets the history discard segments older
	// than t − MaxDelay − safety, bounding memory.
	MaxDelay float64
}

// SolveDDE integrates the delay system y' = f(t, y, past) from t0 to t1
// using the adaptive DOPRI5 core with dense-output history (method of
// steps). Delays need not be constant; state-dependent and vanishing
// delays are handled by dense-output extrapolation of the newest segment.
func (s *DOPRI5) SolveDDE(f DelayFunc, y0 []float64, t0, t1 float64, opt DDEOptions) (Stats, error) {
	if len(y0) == 0 {
		return Stats{}, errors.New("ode: empty state")
	}
	pre := opt.Prehistory
	if pre == nil {
		init := append([]float64(nil), y0...)
		pre = func(j int, _ float64) float64 { return init[j] }
	}
	hist := NewHistory(t0, pre)
	// Segments retired from the bounded history window feed the pool the
	// solver draws fresh segments from: once the window is full the
	// per-step segment cost drops to zero allocations.
	pool := &SegmentPool{}
	hist.Pool = pool
	wrapped := func(t float64, y, dydt []float64) { f(t, y, hist, dydt) }
	return s.Solve(wrapped, y0, t0, t1, SolveOptions{
		SampleAt:   opt.SampleAt,
		NSamples:   opt.NSamples,
		SampleFunc: opt.SampleFunc,
		Pool:       pool,
		OnStep: func(seg *DenseSegment) {
			hist.Push(seg)
			if opt.MaxDelay > 0 {
				hist.Compact(seg.End() - 2*opt.MaxDelay)
			}
		},
	})
}
