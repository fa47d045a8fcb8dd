// Copyright 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The shortest-digit core below (ryuFtoaShortest, computeBounds,
// ryuDigits, ryuDigits32, mult128bitPow10, divisibleByPower5) is a
// float64-only port of the Go 1.24 standard library's
// strconv/ftoaryu.go. appendFloat lays the digits out the way
// strconv.AppendFloat(dst, f, 'g', -1, 64) does, without strconv's
// intermediate digit copies, and the oracle tests pin the two
// byte for byte.

package serve

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// appendFloat appends the shortest decimal form of f that parses back
// to f, byte-identical to strconv.AppendFloat(dst, f, 'g', -1, 64):
// %e layout when the decimal exponent is below -4 or at least 6, %f
// layout otherwise. NaN and ±Inf are handed to strconv.
func appendFloat(dst []byte, f float64) []byte {
	fb := math.Float64bits(f)
	exp := int(fb>>52) & 0x7ff
	mant := fb & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case 0: // subnormal
		exp = 1
	default:
		mant |= 1 << 52
	}
	if fb>>63 != 0 {
		dst = append(dst, '-')
	}
	var buf [32]byte
	d := decimalSlice{d: buf[:]}
	ryuFtoaShortest(&d, mant, exp-1075)
	if d.nd == 0 {
		return append(dst, '0')
	}
	digs := d.d[:d.nd]
	if x := d.dp - 1; x < -4 || x >= 6 {
		dst = append(dst, digs[0])
		if len(digs) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digs[1:]...)
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		switch {
		case x < 10:
			return append(dst, 'e', sign, '0', byte(x)+'0')
		case x < 100:
			return append(dst, 'e', sign, byte(x/10)+'0', byte(x%10)+'0')
		default:
			return append(dst, 'e', sign, byte(x/100)+'0', byte(x/10)%10+'0', byte(x%10)+'0')
		}
	}
	switch {
	case d.dp <= 0:
		dst = append(dst, '0', '.')
		for i := d.dp; i < 0; i++ {
			dst = append(dst, '0')
		}
		return append(dst, digs...)
	case d.dp >= d.nd:
		dst = append(dst, digs...)
		for i := d.nd; i < d.dp; i++ {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, digs[:d.dp]...)
		dst = append(dst, '.')
		return append(dst, digs[d.dp:]...)
	}
}

// decimalSlice is a run of decimal digits d[:nd] with the decimal
// point dp digits from the left.
type decimalSlice struct {
	d      []byte
	nd, dp int
}

// ryuFtoaShortest formats mant*2^exp with the fewest decimal digits
// that round-trip.
func ryuFtoaShortest(d *decimalSlice, mant uint64, exp int) {
	if mant == 0 {
		d.nd, d.dp = 0, 0
		return
	}
	// If input is an exact integer with fewer bits than the mantissa,
	// the previous and next integer are not admissible representations.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		ryuDigits(d, mant, mant, mant, true, false)
		return
	}
	ml, mc, mu, e2 := computeBounds(mant, exp)
	if e2 == 0 {
		ryuDigits(d, ml, mc, mu, true, false)
		return
	}
	// Find 10^q *larger* than 2^-e2
	q := mulByLog2Log10(-e2) + 1

	// We are going to multiply by 10^q using 128-bit arithmetic.
	// The exponent is the same for all 3 numbers.
	dl, _, dl0 := mult128bitPow10(ml, e2, q)
	dc, _, dc0 := mult128bitPow10(mc, e2, q)
	du, e2, du0 := mult128bitPow10(mu, e2, q)
	if e2 >= 0 {
		panic("not enough significant bits after mult128bitPow10")
	}
	// Is it an exact computation?
	if q > 55 {
		// Large positive powers of ten are not exact
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 {
		// Division by a power of ten may be exact.
		// (note that 5^25 is a 59-bit number so division by 5^25 is never exact).
		if divisibleByPower5(ml, -q) {
			dl0 = true
		}
		if divisibleByPower5(mc, -q) {
			dc0 = true
		}
		if divisibleByPower5(mu, -q) {
			du0 = true
		}
	}
	// Express the results (dl, dc, du)*2^e2 as integers.
	// Extra bits must be removed and rounding hints computed.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	// Now compute the floored, integral base 10 mantissas.
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// Is it allowed to use 'du' as a result?
	// It is always allowed when it is truncated, but also
	// if it is exact and the original binary mantissa is even
	// When disallowed, we can subtract 1.
	uok := !du0 || fracu > 0
	if du0 && fracu == 0 {
		uok = mant&1 == 0
	}
	if !uok {
		du--
	}
	// Is 'dc' the correctly rounded base 10 mantissa?
	// The correct rounding might be dc+1
	cup := false // don't round up.
	if dc0 {
		// If we computed an exact product, the half integer
		// should round to next (even) integer if 'dc' is odd.
		cup = fracc > 1<<(extra-1) ||
			(fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		// otherwise, the result is a lower truncation of the ideal
		// result.
		cup = fracc>>(extra-1) == 1
	}
	// Is 'dl' an allowed representation?
	// Only if it is an exact value, and if the original binary mantissa
	// was even.
	lok := dl0 && fracl == 0 && (mant&1 == 0)
	if !lok {
		dl++
	}
	// We need to remember whether the trimmed digits of 'dc' are zero.
	c0 := dc0 && fracc == 0
	// render digits
	ryuDigits(d, dl, dc, du, c0, cup)
	d.dp -= q
}

// mulByLog2Log10 returns math.Floor(x * log(2)/log(10)) for an integer x in
// the range -1600 <= x && x <= +1600.
func mulByLog2Log10(x int) int {
	// log(2)/log(10) ≈ 0.30102999566 ≈ 78913 / 2^18
	return (x * 78913) >> 18
}

// mulByLog10Log2 returns math.Floor(x * log(10)/log(2)) for an integer x in
// the range -500 <= x && x <= +500.
func mulByLog10Log2(x int) int {
	// log(10)/log(2) ≈ 3.32192809489 ≈ 108853 / 2^15
	return (x * 108853) >> 15
}

// computeBounds returns a floating-point vector (l, c, u)×2^e2
// where the mantissas are 55-bit integers, describing the interval
// represented by the input float64.
func computeBounds(mant uint64, exp int) (lower, central, upper uint64, e2 int) {
	if mant != 1<<52 || exp == -1074 {
		// regular case (or denormals)
		return 2*mant - 1, 2 * mant, 2*mant + 1, exp - 1
	}
	// border of an exponent
	return 4*mant - 1, 4 * mant, 4*mant + 2, exp - 2
}

func ryuDigits(d *decimalSlice, lower, central, upper uint64,
	c0, cup bool) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	if uhi == 0 {
		// only low digits (for denormals)
		ryuDigits32(d, llo, clo, ulo, c0, cup, 8)
	} else if lhi < uhi {
		// truncate 9 digits at once.
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = (clo > 5e8) || (clo == 5e8 && cup)
		ryuDigits32(d, lhi, chi, uhi, c0, cup, 8)
		d.dp += 9
	} else {
		d.nd = 0
		// emit high part
		n := uint(9)
		for v := chi; v > 0; {
			v1, v2 := v/10, v%10
			v = v1
			n--
			d.d[n] = byte(v2 + '0')
		}
		d.d = d.d[n:]
		d.nd = int(9 - n)
		// emit low part
		ryuDigits32(d, llo, clo, ulo,
			c0, cup, d.nd+8)
	}
	// trim trailing zeros
	for d.nd > 0 && d.d[d.nd-1] == '0' {
		d.nd--
	}
	// trim initial zeros
	for d.nd > 0 && d.d[0] == '0' {
		d.nd--
		d.dp--
		d.d = d.d[1:]
	}
}

// ryuDigits32 emits decimal digits for a number less than 1e9.
func ryuDigits32(d *decimalSlice, lower, central, upper uint32,
	c0, cup bool, endindex int) {
	if upper == 0 {
		d.dp = endindex + 1
		return
	}
	trimmed := 0
	// Remember last trimmed digit to check for round-up.
	// c0 will be used to remember zeroness of following digits.
	cNextDigit := 0
	for upper > 0 {
		// Repeatedly compute:
		// l = Ceil(lower / 10^k)
		// c = Round(central / 10^k)
		// u = Floor(upper / 10^k)
		// and stop when c goes out of the (l, u) interval.
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			// don't trim the last digit as it is forbidden to go below l
			// other, trim and exit now.
			break
		}
		// Check that we didn't cross the lower boundary.
		// The case where l < u but c == l-1 is essentially impossible,
		// but may happen if:
		//    lower   = ..11
		//    central = ..19
		//    upper   = ..31
		// and means that 'central' is very close but less than
		// an integer ending with many zeros, and usually
		// the "round-up" logic hides the problem.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		// Remember trimmed digits of c
		c0 = c0 && cNextDigit == 0
		cNextDigit = int(cdigit)
		lower, central, upper = l, c, u
	}
	// should we round up?
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	// We know where the number ends, fill directly
	endindex -= trimmed
	v := central
	n := endindex
	for n > d.nd {
		v1, v2 := v/100, v%100
		d.d[n] = smallsString[2*v2+1]
		d.d[n-1] = smallsString[2*v2+0]
		n -= 2
		v = v1
	}
	if n == d.nd {
		d.d[n] = byte(v + '0')
	}
	d.nd = endindex + 1
	d.dp = d.nd + trimmed
}

// mult128bitPow10 takes a floating-point input with a 55-bit
// mantissa and multiplies it with 10^q. The resulting mantissa
// is m*P >> 119 where P is a 128-bit element of the detailedPowersOfTen tables.
// It is typically 63 or 64-bit wide.
// The returned boolean is true is all trimmed bits were zero.
//
// That is:
//
//	m*2^e2 * round(10^q) = resM * 2^resE + ε
//	exact = ε == 0
func mult128bitPow10(m uint64, e2, q int) (resM uint64, resE int, exact bool) {
	if q == 0 {
		// P == 1<<127
		return m << 8, e2 - 8, true
	}
	if q < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < q {
		// This never happens due to the range of float64 exponent
		panic("mult128bitPow10: power of 10 is out of range")
	}
	pow := detailedPowersOfTen[q-detailedPowersOfTenMinExp10]
	if q < 0 {
		// Inverse powers of ten must be rounded up.
		pow[0] += 1
	}
	e2 += mulByLog10Log2(q) - 127 + 119

	// long multiplication
	l1, l0 := bits.Mul64(m, pow[0])
	h1, h0 := bits.Mul64(m, pow[1])
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, e2, mid<<9 == 0 && l0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

const smallsString = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of detailedPowersOfTen. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// detailedPowersOfTen holds the 128-bit mantissa of each power of ten
// 10^e, normalized into [2^127, 2^128) and rounded down, as {low, high}
// 64-bit halves; 10^e ≈ mantissa × 2^(mulByLog10Log2(e)-127). It is
// the table strconv's eisel_lemire.go lists, generated here with exact
// big-integer arithmetic.
var detailedPowersOfTen = func() (t [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64) {
	ten, p := big.NewInt(10), big.NewInt(1)
	put := func(e int, m *big.Int) {
		if s := m.BitLen() - 128; s > 0 {
			m.Rsh(m, uint(s))
		} else {
			m.Lsh(m, uint(-s))
		}
		t[e-detailedPowersOfTenMinExp10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	for e := 0; e <= detailedPowersOfTenMaxExp10; e++ {
		put(e, new(big.Int).Set(p))
		p.Mul(p, ten)
	}
	p.SetInt64(1)
	for e := -1; e >= detailedPowersOfTenMinExp10; e-- {
		// 2^(n-1) < 10^-e < 2^n, so 2^(n+127) / 10^-e lies in (2^127, 2^128).
		p.Mul(p, ten)
		q := new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+127))
		put(e, q.Quo(q, p))
	}
	return t
}()
