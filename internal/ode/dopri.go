package ode

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Dormand–Prince 5(4) Butcher tableau (Hairer, Nørsett, Wanner, Solving
// Ordinary Differential Equations I, Table 5.2) with the first-same-as-last
// (FSAL) property: the 7th stage of an accepted step is the 1st stage of
// the next.
const (
	c2, c3, c4, c5 = 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9

	a21 = 1.0 / 5
	a31 = 3.0 / 40
	a32 = 9.0 / 40
	a41 = 44.0 / 45
	a42 = -56.0 / 15
	a43 = 32.0 / 9
	a51 = 19372.0 / 6561
	a52 = -25360.0 / 2187
	a53 = 64448.0 / 6561
	a54 = -212.0 / 729
	a61 = 9017.0 / 3168
	a62 = -355.0 / 33
	a63 = 46732.0 / 5247
	a64 = 49.0 / 176
	a65 = -5103.0 / 18656
	a71 = 35.0 / 384
	a73 = 500.0 / 1113
	a74 = 125.0 / 192
	a75 = -2187.0 / 6784
	a76 = 11.0 / 84

	// e_i = b5_i − b4_i: coefficients of the embedded error estimate.
	e1 = 71.0 / 57600
	e3 = -71.0 / 16695
	e4 = 71.0 / 1920
	e5 = -17253.0 / 339200
	e6 = 22.0 / 525
	e7 = -1.0 / 40

	// Dense-output coefficients for the 4th-order continuous extension.
	d1 = -12715105075.0 / 11282082432
	d3 = 87487479700.0 / 32700410799
	d4 = -10690763975.0 / 1880347072
	d5 = 701980252875.0 / 199316789632
	d6 = -1453857185.0 / 822651844
	d7 = 69997945.0 / 29380423
)

// DOPRI5 is an adaptive Dormand–Prince 5(4) integrator with dense output.
// The zero value is not usable; call NewDOPRI5.
type DOPRI5 struct {
	// Atol and Rtol are the absolute and relative error tolerances of the
	// embedded error estimate.
	Atol, Rtol float64
	// H0 is the initial step size; 0 selects one automatically.
	H0 float64
	// Hmax caps the step size; 0 means no cap beyond the interval length.
	Hmax float64
	// Hmin rejects the integration when the controller underflows below it.
	Hmin float64
	// MaxSteps aborts runaway integrations.
	MaxSteps int
	// Beta enables the PI stabilization term (0.04–0.08 typical; 0 gives
	// the plain I controller).
	Beta float64

	k1, k2, k3, k4, k5, k6, k7 []float64
	ytmp, yerr                 []float64
	y, ynew, ysmp              []float64

	// scratchSeg is the dense segment reused across steps when the caller
	// does not retain dense output (no OnStep or Pool).
	scratchSeg DenseSegment
}

// NewDOPRI5 returns an integrator with the given tolerances and sensible
// controller defaults.
func NewDOPRI5(atol, rtol float64) *DOPRI5 {
	return &DOPRI5{Atol: atol, Rtol: rtol, MaxSteps: 10_000_000, Beta: 0.04}
}

// DenseSegment is the continuous extension of one accepted step over
// [T0, T0+H]. Eval provides 4th-order accurate values anywhere inside the
// step (and extrapolates outside, which the DDE driver uses for vanishing
// delays).
type DenseSegment struct {
	T0, H float64
	// rcont holds the five interpolation coefficient vectors, carved out
	// of one shared backing array so a segment costs two allocations at
	// most — and zero when recycled through a SegmentPool.
	rcont   [5][]float64
	backing []float64
}

// reserve sizes the interpolation vectors for dimension n, reusing the
// backing array when it is already large enough.
func (seg *DenseSegment) reserve(n int) {
	if cap(seg.backing) < 5*n {
		seg.backing = make([]float64, 5*n)
	}
	b := seg.backing[:5*n]
	for i := range seg.rcont {
		seg.rcont[i] = b[i*n : (i+1)*n : (i+1)*n]
	}
}

// SegmentPool recycles DenseSegments so long integrations that discard
// old history (the DDE driver's Compact) reach a steady state with no
// per-step allocations. The zero value is ready to use.
type SegmentPool struct{ free []*DenseSegment }

// Get returns a segment sized for dimension n, reusing a recycled one
// when available.
func (p *SegmentPool) Get(n int) *DenseSegment {
	if m := len(p.free); m > 0 {
		seg := p.free[m-1]
		p.free = p.free[:m-1]
		seg.reserve(n)
		return seg
	}
	seg := &DenseSegment{}
	seg.reserve(n)
	return seg
}

// Put returns a segment to the pool. The caller must not use it again.
func (p *SegmentPool) Put(seg *DenseSegment) {
	if seg != nil {
		p.free = append(p.free, seg)
	}
}

// Eval writes the interpolated state at time t into dst and returns it.
//
//pomvet:allocfree
func (seg *DenseSegment) Eval(t float64, dst []float64) []float64 {
	n := len(seg.rcont[0])
	if cap(dst) < n {
		dst = make([]float64, n) //pomvet:allow allocfree first-use resize only; the solver hands pre-sized sample buffers on the steady-state path
	}
	dst = dst[:n]
	th := (t - seg.T0) / seg.H
	th1 := 1 - th
	for i := 0; i < n; i++ {
		dst[i] = seg.rcont[0][i] + th*(seg.rcont[1][i]+th1*(seg.rcont[2][i]+th*(seg.rcont[3][i]+th1*seg.rcont[4][i])))
	}
	return dst
}

// EvalComponent interpolates a single state component at time t.
//
//pomvet:allocfree
func (seg *DenseSegment) EvalComponent(j int, t float64) float64 {
	th := (t - seg.T0) / seg.H
	th1 := 1 - th
	return seg.rcont[0][j] + th*(seg.rcont[1][j]+th1*(seg.rcont[2][j]+th*(seg.rcont[3][j]+th1*seg.rcont[4][j])))
}

// End returns the segment's right endpoint.
func (seg *DenseSegment) End() float64 { return seg.T0 + seg.H }

// SolveOptions configures a DOPRI5 integration run.
type SolveOptions struct {
	// SampleAt, together with NSamples, requests output at the increasing
	// times SampleAt(0) … SampleAt(NSamples−1) without materializing the
	// time grid: the run allocates nothing proportional to NSamples.
	// Required.
	SampleAt func(k int) float64
	// NSamples is the number of samples SampleAt produces.
	NSamples int
	// SampleFunc receives every output row: the state y0 at t0 first,
	// then one row per planned sample after t0. The y slice is
	// solver-owned and reused between calls; implementations must not
	// retain it. Required.
	SampleFunc func(t float64, y []float64)
	// OnStep, when non-nil, is invoked after every accepted step with the
	// segment for that step (used by the DDE history).
	OnStep func(seg *DenseSegment)
	// Pool, when non-nil, supplies the dense segments handed to OnStep.
	// Pair it with a consumer that recycles retired segments (the DDE
	// history's Compact) to make long runs allocation-free.
	Pool *SegmentPool
}

// ErrStepSizeUnderflow reports that the controller could not meet the
// tolerance with a step above Hmin.
var ErrStepSizeUnderflow = errors.New("ode: step size underflow")

// ErrTooManySteps reports that MaxSteps was exceeded.
var ErrTooManySteps = errors.New("ode: too many steps")

// Solve integrates y' = f(t, y) from t0 to t1 starting at y0, streaming
// the planned sample rows to opt.SampleFunc, and returns the work
// statistics (partial ones alongside an integration error).
func (s *DOPRI5) Solve(f Func, y0 []float64, t0, t1 float64, opt SolveOptions) (Stats, error) {
	var st Stats
	if t1 < t0 {
		return st, errors.New("ode: Solve needs t1 >= t0")
	}
	n := len(y0)
	if n == 0 {
		return st, errors.New("ode: empty state")
	}
	if opt.NSamples < 0 {
		return st, fmt.Errorf("ode: negative NSamples %d", opt.NSamples)
	}
	if opt.SampleAt == nil || opt.SampleFunc == nil {
		return st, errors.New("ode: Solve needs a sample plan (SampleAt) and a row consumer (SampleFunc)")
	}
	// A bad plan — non-increasing times or samples outside [t0, t1] —
	// would silently produce corrupt output (rows skipped, duplicated, or
	// extrapolated); reject it up front. The scan evaluates the plan once
	// ahead of time, which costs O(NSamples) arithmetic and no
	// allocations.
	nSamp, sampleAt := opt.NSamples, opt.SampleAt
	if err := checkSamplePlan(nSamp, sampleAt, t0, t1); err != nil {
		return st, err
	}
	s.alloc(n)

	s.y = grow(s.y, n)
	copy(s.y, y0)
	s.ynew = grow(s.ynew, n)
	y, ynew := s.y, s.ynew
	t := t0

	opt.SampleFunc(t0, y)
	// Skip any requested samples that coincide with t0.
	sampleIdx := 0
	for sampleIdx < nSamp && sampleAt(sampleIdx) <= t0 {
		sampleIdx++
	}

	hmax := t1 - t0
	if s.Hmax > 0 && s.Hmax < hmax {
		hmax = s.Hmax
	}
	h := s.H0
	if h <= 0 {
		h = s.initialStep(f, t0, y, t1)
	}
	h = math.Min(h, hmax)

	f(t, y, s.k1) // first stage; FSAL recycles k7 afterwards
	st.Evals++

	errOld := 1e-4
	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10_000_000
	}

	for t < t1 {
		if st.Steps >= maxSteps {
			return st, fmt.Errorf("%w (t=%g of %g)", ErrTooManySteps, t, t1)
		}
		if t+h > t1 {
			h = t1 - t
		}
		st.Steps++

		errNorm := s.step(f, t, y, h, ynew)
		st.Evals += 6

		if errNorm <= 1 { // accept
			st.Accepted++
			// An OnStep consumer keeps segments beyond the current step,
			// so each accepted step needs its own (pooled or fresh)
			// segment; otherwise the solver-local scratch is reused.
			var seg *DenseSegment
			switch {
			case opt.Pool != nil:
				seg = opt.Pool.Get(n)
			case opt.OnStep != nil:
				seg = &DenseSegment{}
				seg.reserve(n)
			default:
				seg = &s.scratchSeg
				seg.reserve(n)
			}
			s.fillDense(seg, t, h, y, ynew)
			if opt.OnStep != nil {
				opt.OnStep(seg)
			}
			tNew := t + h
			for sampleIdx < nSamp {
				ts := sampleAt(sampleIdx)
				if ts > tNew+1e-14 {
					break
				}
				opt.SampleFunc(ts, seg.Eval(ts, s.ysmp))
				sampleIdx++
			}
			// FSAL: k7 of the accepted step becomes k1 of the next.
			s.k1, s.k7 = s.k7, s.k1
			y, ynew = ynew, y
			t = tNew

			// PI controller (Hairer II.4): err^(-0.2+beta) * errold^beta.
			fac := math.Pow(errNorm, -(0.2-s.Beta*0.75)) * math.Pow(errOld, s.Beta)
			fac = mathx.Clamp(0.9*fac, 0.2, 10)
			h = math.Min(h*fac, hmax)
			errOld = math.Max(errNorm, 1e-4)
		} else { // reject
			st.Rejected++
			fac := mathx.Clamp(0.9*math.Pow(errNorm, -0.2), 0.1, 1)
			h *= fac
			if s.Hmin > 0 && h < s.Hmin || h < 1e-14*math.Max(1, math.Abs(t)) {
				return st, fmt.Errorf("%w at t=%g (h=%g)", ErrStepSizeUnderflow, t, h)
			}
		}
	}
	return st, nil
}

// checkSamplePlan validates a sample plan: every time must lie inside
// the integration interval and the sequence must be strictly increasing.
func checkSamplePlan(n int, at func(int) float64, t0, t1 float64) error {
	prev := math.Inf(-1)
	for k := 0; k < n; k++ {
		ts := at(k)
		if math.IsNaN(ts) || ts < t0 || ts > t1 {
			return fmt.Errorf("ode: sample %d at t=%g lies outside [%g, %g]", k, ts, t0, t1)
		}
		if ts <= prev {
			return fmt.Errorf("ode: sample plan not increasing: sample %d at t=%g after t=%g", k, ts, prev)
		}
		prev = ts
	}
	return nil
}

// step performs one trial step of size h from (t, y) into ynew and returns
// the scaled error norm. k1 must hold f(t, y) on entry; k2..k7 are filled.
//
//pomvet:allocfree
func (s *DOPRI5) step(f Func, t float64, y []float64, h float64, ynew []float64) float64 {
	n := len(y)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*a21*s.k1[i]
	}
	f(t+c2*h, s.ytmp, s.k2)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a31*s.k1[i]+a32*s.k2[i])
	}
	f(t+c3*h, s.ytmp, s.k3)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a41*s.k1[i]+a42*s.k2[i]+a43*s.k3[i])
	}
	f(t+c4*h, s.ytmp, s.k4)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a51*s.k1[i]+a52*s.k2[i]+a53*s.k3[i]+a54*s.k4[i])
	}
	f(t+c5*h, s.ytmp, s.k5)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a61*s.k1[i]+a62*s.k2[i]+a63*s.k3[i]+a64*s.k4[i]+a65*s.k5[i])
	}
	f(t+h, s.ytmp, s.k6)
	for i := 0; i < n; i++ {
		ynew[i] = y[i] + h*(a71*s.k1[i]+a73*s.k3[i]+a74*s.k4[i]+a75*s.k5[i]+a76*s.k6[i])
	}
	f(t+h, ynew, s.k7)
	for i := 0; i < n; i++ {
		s.yerr[i] = h * (e1*s.k1[i] + e3*s.k3[i] + e4*s.k4[i] + e5*s.k5[i] + e6*s.k6[i] + e7*s.k7[i])
	}
	return mathx.ScaledNorm(s.yerr, y, ynew, s.Atol, s.Rtol)
}

// fillDense writes the continuous extension of the step just accepted
// into seg, whose interpolation vectors must already be sized (reserve).
//
//pomvet:allocfree
func (s *DOPRI5) fillDense(seg *DenseSegment, t, h float64, y, ynew []float64) {
	n := len(y)
	seg.T0, seg.H = t, h
	for i := 0; i < n; i++ {
		ydiff := ynew[i] - y[i]
		bspl := h*s.k1[i] - ydiff
		seg.rcont[0][i] = y[i]
		seg.rcont[1][i] = ydiff
		seg.rcont[2][i] = bspl
		seg.rcont[3][i] = ydiff - h*s.k7[i] - bspl
		seg.rcont[4][i] = h * (d1*s.k1[i] + d3*s.k3[i] + d4*s.k4[i] + d5*s.k5[i] + d6*s.k6[i] + d7*s.k7[i])
	}
}

// initialStep implements Hairer's automatic initial step heuristic. It
// borrows the k2/k3/ytmp stage buffers as scratch (alloc must have run;
// the stages are overwritten by the first step anyway).
func (s *DOPRI5) initialStep(f Func, t0 float64, y0 []float64, t1 float64) float64 {
	n := len(y0)
	f0 := s.k2
	f(t0, y0, f0)
	var d0, dY float64
	for i := 0; i < n; i++ {
		sc := s.Atol + s.Rtol*math.Abs(y0[i])
		d0 += (y0[i] / sc) * (y0[i] / sc)
		dY += (f0[i] / sc) * (f0[i] / sc)
	}
	d0 = math.Sqrt(d0 / float64(n))
	dY = math.Sqrt(dY / float64(n))
	h0 := 1e-6
	if d0 >= 1e-5 && dY >= 1e-5 {
		h0 = 0.01 * d0 / dY
	}
	h0 = math.Min(h0, t1-t0)

	y1 := s.ytmp
	f1 := s.k3
	for i := 0; i < n; i++ {
		y1[i] = y0[i] + h0*f0[i]
	}
	f(t0+h0, y1, f1)
	var d2 float64
	for i := 0; i < n; i++ {
		sc := s.Atol + s.Rtol*math.Abs(y0[i])
		df := (f1[i] - f0[i]) / sc
		d2 += df * df
	}
	d2 = math.Sqrt(d2/float64(n)) / h0
	der := math.Max(dY, d2)
	var h1 float64
	if der <= 1e-15 {
		h1 = math.Max(1e-6, h0*1e-3)
	} else {
		h1 = math.Pow(0.01/der, 0.2)
	}
	return math.Min(math.Min(100*h0, h1), t1-t0)
}

func (s *DOPRI5) alloc(n int) {
	s.k1 = grow(s.k1, n)
	s.k2 = grow(s.k2, n)
	s.k3 = grow(s.k3, n)
	s.k4 = grow(s.k4, n)
	s.k5 = grow(s.k5, n)
	s.k6 = grow(s.k6, n)
	s.k7 = grow(s.k7, n)
	s.ytmp = grow(s.ytmp, n)
	s.yerr = grow(s.yerr, n)
	s.ysmp = grow(s.ysmp, n)
}
