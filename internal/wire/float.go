package wire

// Shortest round-trip digits of a float64, for the JSON encoders, and
// the power-of-ten table they share with the JSON scanner's Eisel–Lemire
// conversion (eisellemire.go).

import "math/bits"

// pow10Min and pow10Max bound the powers of ten in pow10: every float64
// is converted, either way, with one of 10^-348 … 10^347.
const pow10Min, pow10Max = -348, 347

// pow10 holds 10^q for pow10Min ≤ q ≤ pow10Max as a 128-bit mantissa
// hi·2^64 + lo, normalised so that hi's top bit is set and rounded down:
// ⌊10^q · 2^(127 − ⌊log2 10^q⌋)⌋, exact for 0 ≤ q ≤ 55. It is Go's
// strconv table, entry for entry (TestPow10Table), built at start-up by
// exact multi-word arithmetic in well under a millisecond rather than
// carried as 696 literal rows.
var pow10 = powersOfTen()

func powersOfTen() (t [pow10Max - pow10Min + 1]struct{ hi, lo uint64 }) {
	// 10^q and 5^q have the same mantissa. 5^347 takes 806 bits.
	var p [13]uint64 // little-endian words
	p[0] = 1
	for q := 0; q <= pow10Max; q++ {
		t[q-pow10Min].hi, t[q-pow10Min].lo = top128(p[:])
		var carry uint64
		for i := range p {
			hi, lo := bits.Mul64(p[i], 5)
			var c uint64
			p[i], c = bits.Add64(lo, carry, 0)
			carry = hi + c
		}
	}
	// 10^-q has 5^-q's mantissa, the top of ⌊2^959 / 5^q⌋. Dividing by 5
	// q times floors only once (⌊⌊x/a⌋/b⌋ = ⌊x/ab⌋), and 2^959 / 5^348
	// still has 151 bits.
	var r [15]uint64
	r[14] = 1 << 63
	for q := 1; q <= -pow10Min; q++ {
		var rem uint64
		for i := len(r) - 1; i >= 0; i-- {
			r[i], rem = bits.Div64(rem, r[i], 5)
		}
		t[-q-pow10Min].hi, t[-q-pow10Min].lo = top128(r[:])
	}
	return t
}

// top128 returns the 128 bits of x (little-endian words, not zero) from
// its leading one down, rounded down.
func top128(x []uint64) (hi, lo uint64) {
	i := len(x) - 1
	for x[i] == 0 {
		i--
	}
	var w [3]uint64 // x[i], x[i-1], x[i-2], zero below x[0]
	for j := range w {
		if i-j >= 0 {
			w[j] = x[i-j]
		}
	}
	s := uint(bits.LeadingZeros64(w[0]))
	return w[0]<<s | w[1]>>(64-s), w[1]<<s | w[2]>>(64-s)
}

// shortestDecimal returns the shortest decimal d·10^k that reads back as
// the finite, non-zero float64 whose bits are f (the sign is ignored),
// the one nearest the float when several are as short, ties to even d —
// the digits strconv.AppendFloat(…, -1, 64) writes. d has no trailing
// zeros. It is Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): the float's rounding interval and the float itself
// are scaled by 10^-k with one 128-bit multiply each, g = pow10[-k] + 1
// (strictly above the true power) rounded to odd, which keeps exact just
// the integer part and whether anything was below it; then of the at
// most two candidates one digit shorter and the two of full length, the
// one inside the interval wins.
//
//rsmi:noalloc
func shortestDecimal(f uint64) (d uint64, k int) {
	const mantBits = 52
	frac, biased := f&(1<<mantBits-1), int(f>>mantBits&0x7FF)
	c, q := frac, -1074 // the float is c·2^q
	if biased != 0 {
		c, q = frac|1<<mantBits, biased-1075
	}
	// The interval is [cbl, cbr]·2^(q-2); below a power of two the float
	// below is half as far away as the float above.
	cbl, cb, cbr := 4*c-2, 4*c, 4*c+2
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	if frac == 0 && biased > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
	}
	h := uint(q + (-k*1741647)>>19 + 1) // 1 … 4: q + ⌊log2 10^-k⌋ + 1
	g := pow10[-k-pow10Min]
	gHi, gLo := g.hi, g.lo+1
	if gLo == 0 {
		gHi++
	}
	vbl, vb, vbr := roundToOdd(gHi, gLo, cbl<<h), roundToOdd(gHi, gLo, cb<<h), roundToOdd(gHi, gLo, cbr<<h)
	// vb ≈ 4c·2^q·10^-k, vbl and vbr the same for the interval's ends;
	// an end is inside when c is even.
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower, upper = lower+1, upper-1
	}
	s := vb >> 2
	if s >= 10 {
		// At most one of the two candidates one digit shorter is inside.
		sp := s / 10
		upInside, wpInside := lower <= 40*sp, 40*sp+40 <= upper
		if upInside != wpInside {
			if wpInside {
				sp++
			}
			return trimZeros(sp, k+1)
		}
	}
	uInside, wInside := lower <= 4*s, 4*s+4 <= upper
	if uInside != wInside {
		if wInside {
			s++
		}
		return trimZeros(s, k)
	}
	// Both are inside: the nearer, ties to even.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return trimZeros(s, k)
}

// roundToOdd returns ⌊g·cp / 2^128⌋ with its lowest bit set if the
// product had any fraction. g overestimates the scaled power of ten by
// less than one, so the fraction of a product that should have been an
// integer stays below 2^-64; Schubfach's analysis shows every other
// fraction is larger.
func roundToOdd(gHi, gLo, cp uint64) uint64 {
	x1, _ := bits.Mul64(gLo, cp)
	y1, y0 := bits.Mul64(gHi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	v := y1 + carry
	if z != 0 {
		v |= 1
	}
	return v
}

// trimZeros returns d·10^k with d's trailing zeros moved into k.
func trimZeros(d uint64, k int) (uint64, int) {
	for d%10 == 0 {
		d, k = d/10, k+1
	}
	return d, k
}

// digitPairs spells 00 … 99, two bytes each, for writing numbers two
// digits at a time.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes d's decimal digits to the end of buf and returns the
// index of the first, two digits at a time.
func putDigits(buf []byte, d uint64) int {
	i := len(buf)
	for d >= 100 {
		i -= 2
		putPair(buf[i:], d%100)
		d /= 100
	}
	if d >= 10 {
		i -= 2
		putPair(buf[i:], d)
		return i
	}
	i--
	buf[i] = byte('0' + d)
	return i
}

// putPair writes the two digits of x < 100 to buf[0] and buf[1].
func putPair(buf []byte, x uint64) {
	buf[0], buf[1] = digitPairs[2*x], digitPairs[2*x+1]
}
