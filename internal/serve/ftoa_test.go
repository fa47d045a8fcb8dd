package serve

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkFloats fails t at the first value whose appendFloat bytes differ
// from strconv's shortest 'g' form — the oracle every encoder test uses.
func checkFloats(t testing.TB, n int, next func(i int) float64) {
	t.Helper()
	var got, want []byte
	for i := 0; i < n; i++ {
		f := next(i)
		got = appendFloat(got[:0], f)
		want = strconv.AppendFloat(want[:0], f, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) [bits %#016x] = %q, want %q", f, math.Float64bits(f), got, want)
		}
	}
}

// edgeFloats are the values the layout and the digit core treat
// specially: signed zeros, subnormals and the normal boundary, exact
// powers of two, integers around 2^53, the %e/%f switch points and the
// extremes of the range.
var edgeFloats = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.225073858507201e-308,
	math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52), math.Float64frombits(1<<52 + 1),
	0x1p-1022, 0x1p-1023, 0x1p-1074, 0x1p-1, 0x1p0, 0x1p1, 0x1p52, 0x1p63, 0x1p64, 0x1p100, 0x1p1023, 0x1p-100,
	1 << 53, 1<<53 + 2, 1<<53 - 1, 1<<54 + 4, 9007199254740993, 1e15, 1e16, 1e17, 123456789012345678,
	9.9999e-5, 1e-4, 1.0000000000000002e-4, 0.0001234, 1e-5, 999999, 999999.9999999999, 1e6, 1000001,
	1e20, 1e21, 1e22, 1e23, 1e-7, 1e-300,
	1, -1, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, math.Pi, math.E, 2 * math.Pi, 1.0000000000000002, 0.9999999999999999,
	100, 123456, 5e-310, 1.7976931348623157e308,
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendFloatEdges(t *testing.T) {
	checkFloats(t, len(edgeFloats), func(i int) float64 { return edgeFloats[i] })
	for _, f := range edgeFloats {
		checkFloats(t, 3, func(i int) float64 {
			return [...]float64{-f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1))}[i]
		})
	}
}

// TestAppendFloatPowersOfTen checks rows of the generated table
// against the values strconv's eisel_lemire.go lists for them.
func TestAppendFloatPowersOfTen(t *testing.T) {
	for _, tc := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-16, 0x4C2EBE687989A9B3, 0xE69594BEC44DE15B},
		{-3, 0x645A1CAC083126E9, 0x83126E978D4FDF3B},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := detailedPowersOfTen[tc.e-detailedPowersOfTenMinExp10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d row = {%#x, %#x}, want {%#x, %#x}", tc.e, got[0], got[1], tc.lo, tc.hi)
		}
	}
}

// TestAppendFloatPowersOfTenValues covers every exponent the table
// serves: 10^e itself and its neighbours for each representable e.
func TestAppendFloatPowersOfTenValues(t *testing.T) {
	for e := -323; e <= 308; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		checkFloats(t, 4, func(i int) float64 {
			return [...]float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * 1.5}[i]
		})
	}
}

// TestAppendFloatRandomBits draws 10 M seeded random bit patterns, so
// every exponent, subnormals and both signs appear. Four parallel
// shards of 2.5 M, one seed each, keep the race-detector run short.
func TestAppendFloatRandomBits(t *testing.T) {
	for shard := range uint64(4) {
		t.Run(strconv.FormatUint(shard, 10), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(1+shard, 0xf10a7))
			checkFloats(t, 2_500_000, func(int) float64 { return math.Float64frombits(rng.Uint64()) })
		})
	}
}

// TestAppendFloatSolverLike draws the value mixes sample rows carry:
// phases and uniform values, sample-time grids (k·dt), decimal grids,
// integers, and values near the %e/%f switch points.
func TestAppendFloatSolverLike(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0x501e))
	const n = 500_000
	for _, mix := range []struct {
		name string
		next func(int) float64
	}{
		{"phase", func(int) float64 { return (rng.Float64()*2 - 1) * 400 * math.Pi }},
		{"uniform", func(int) float64 { return rng.Float64() }},
		{"tgrid", func(i int) float64 { return float64(i) * (400.0 / 2000) }},
		{"decimal", func(int) float64 { return float64(rng.IntN(2_000_000)-1_000_000) / math.Pow(10, float64(rng.IntN(12))) }},
		{"integer", func(int) float64 { return float64(rng.Int64N(1<<60) >> rng.IntN(60)) }},
		{"switch", func(int) float64 { return math.Pow(10, float64(rng.IntN(4)+3)-rng.Float64()*8) }},
		{"tiny", func(int) float64 { return rng.NormFloat64() * 1e-9 }},
	} {
		t.Run(mix.name, func(t *testing.T) { checkFloats(t, n, mix.next) })
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkFloats(t, 1, func(int) float64 { return math.Float64frombits(b) })
	})
}

func TestAppendRowAllocs(t *testing.T) {
	y := []float64{0.1, -2.5e-7, 3.141592653589793, 1e21, 0}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRow(buf[:0], 12.5, y) }); n != 0 {
		t.Errorf("AppendRow allocates %v times per row into a buffer with room, want 0", n)
	}
}

// BenchmarkAppendRow renders POM-like rows (40 phases drifting off a
// 0.2 time grid) and reports the NDJSON throughput.
func BenchmarkAppendRow(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 0xbe7c4))
	const rows, width = 64, 40
	ts := make([]float64, rows)
	ys := make([][]float64, rows)
	var size int
	for k := range ys {
		ts[k] = float64(k) * 0.2
		ys[k] = make([]float64, width)
		for i := range ys[k] {
			ys[k][i] = ts[k]*1.25 + rng.NormFloat64()*1e-3
		}
		size += len(AppendRow(nil, ts[k], ys[k]))
	}
	buf := make([]byte, 0, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for b.Loop() {
		buf = buf[:0]
		for k := range ys {
			buf = AppendRow(buf, ts[k], ys[k])
		}
	}
}
