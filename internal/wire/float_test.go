package wire

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"rsmi/internal/dataset"
)

// floatChecker holds appendJSONFloat to json.Marshal and scanJSONFloat
// to the bits it was given. It marshals values a slice at a time, which
// spends json.Marshal's reflection once per 1 024 of them.
type floatChecker struct {
	t        testing.TB
	vs       []float64
	got, buf []byte
}

// check queues v, and checks the queue when it is full.
func (c *floatChecker) check(v float64) {
	if c.vs = append(c.vs, v); len(c.vs) == 1024 {
		c.flush()
	}
}

// flush checks the queued values: the text of each must be json.Marshal's
// and read back to its bits.
func (c *floatChecker) flush() {
	want, err := json.Marshal(c.vs)
	if err != nil {
		c.t.Fatal(err)
	}
	c.got = append(c.got[:0], '[')
	for i, v := range c.vs {
		if i > 0 {
			c.got = append(c.got, ',')
		}
		start := len(c.got)
		c.got = appendJSONFloat(c.got, v)
		text := c.got[start:]
		if got, end := scanJSONFloat(text, 0); end != len(text) || math.Float64bits(got) != math.Float64bits(v) {
			c.t.Fatalf("%s: scanJSONFloat reads %#x to byte %d, want %#x", text, math.Float64bits(got), end, math.Float64bits(v))
		}
	}
	if c.got = append(c.got, ']'); string(c.got) != string(want) {
		for _, v := range c.vs {
			want, _ := json.Marshal(v)
			if c.buf = appendJSONFloat(c.buf[:0], v); string(c.buf) != string(want) {
				c.t.Fatalf("%#x: appendJSONFloat writes %s, json.Marshal %s", math.Float64bits(v), c.buf, want)
			}
		}
	}
	c.vs = c.vs[:0]
}

// TestAppendJSONFloatMatchesMarshal holds appendJSONFloat to json.Marshal
// byte for byte, the twin of TestScanJSONFloatMatchesParseFloat: on the
// format's edges, two ulps either side of every power of two and ten, 5 M
// random values and 200 k points of every dataset kind.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	c := &floatChecker{t: t}
	defer c.flush()
	check := func(v float64) {
		c.check(v)
		c.check(-v)
	}
	for _, v := range []float64{
		0, 5e-324, math.Float64frombits(1<<52 - 1), math.SmallestNonzeroFloat64 * 2, 2.2250738585072014e-308, math.MaxFloat64,
		1, 0.1, 0.5, 42, 100, 123456789, 1e15, 1e16, 1e17, 1e20, 1e22, 1e23, 0.3, 2.5, 1.5e-7, 9.5e-7, 1e-7, 1.0000000000000002,
		1125899906842624.25, 1125899906842624.75, // equally near two 17-digit decimals: the even one
		0.8401877171547095, 1.7976931348623157e308, 4.35e-22, 123e-20, 5e-310,
	} {
		check(v)
	}
	for i := int64(-1 << 12); i <= 1<<12; i++ { // integers around 2^53, exact and rounded
		check(float64(1<<53 + i))
		check(float64(1<<53 + i*7))
	}
	for _, v := range []float64{1e-6, 1e21} { // where the layout switches
		for w, j := v, 0; j < 64; j, w = j+1, math.Nextafter(w, 0) {
			check(w)
		}
		for w, j := v, 0; j < 64; j, w = j+1, math.Nextafter(w, math.Inf(1)) {
			check(w)
		}
	}
	around := func(v float64) {
		lo, hi := v, v
		for j := 0; j < 3 && lo != 0; j++ {
			check(lo)
			check(hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for q := -323; q <= 308; q++ {
		v, _ := strconv.ParseFloat("1e"+strconv.Itoa(q), 64)
		around(v)
	}

	n := 5_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0:
			if v = math.Float64frombits(rng.Uint64()); math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 1:
			v = rng.Float64()
		case 2:
			v = rng.NormFloat64() * 1e6
		case 3: // few digits: the shorter candidate and trailing zeros
			v = float64(rng.Int63n(1e6)) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		c.check(v)
	}
	for _, kind := range dataset.All() {
		for _, p := range dataset.Generate(kind, 200_000, 38) {
			c.check(p.X)
			c.check(p.Y)
		}
	}
}

// TestPow10Table pins the power-of-ten table to a math/big recomputation,
// entry for entry, and to rows of Go's strconv table by value.
func TestPow10Table(t *testing.T) {
	for q := pow10Min; q <= pow10Max; q++ {
		x := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		if q < 0 {
			x.Quo(new(big.Int).Lsh(big.NewInt(1), 2048), x)
		}
		if s := x.BitLen() - 128; s >= 0 {
			x.Rsh(x, uint(s))
		} else {
			x.Lsh(x, uint(-s))
		}
		lo := new(big.Int).And(x, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := x.Rsh(x, 64).Uint64()
		if got := pow10[q-pow10Min]; got.hi != hi || got.lo != lo {
			t.Fatalf("10^%d: table %#016x_%016x, math/big %#016x_%016x", q, got.hi, got.lo, hi, lo)
		}
	}
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-300, 0xAB70FE17C79AC6CA, 0x6DBD630A48AAF406},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{23, 0xA968163F0A57B400, 0},
		{28, 0x813F3978F8940984, 0x4000000000000000},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10[c.q-pow10Min]; got.hi != c.hi || got.lo != c.lo {
			t.Errorf("10^%d: table %#016x_%016x, strconv %#016x_%016x", c.q, got.hi, got.lo, c.hi, c.lo)
		}
	}
}

// TestJSONFloatConversionsAllocateNothing pins the conversions behind
// appendJSONFloat and scanJSONFloat by name: shortestDecimal,
// eiselLemire64 and appendJSONFloat itself allocate nothing.
func TestJSONFloatConversionsAllocateNothing(t *testing.T) {
	buf := make([]byte, 0, 32)
	allocs := testing.AllocsPerRun(100, func() {
		if d, k := shortestDecimal(math.Float64bits(0.8401877171547095)); d != 8401877171547095 || k != -16 {
			t.Fatalf("shortestDecimal gives %d·10^%d", d, k)
		}
		if v, ok := eiselLemire64(8401877171547095, -16, false); !ok || v != 0.8401877171547095 {
			t.Fatalf("eiselLemire64 gives %v (%v)", v, ok)
		}
		if buf = appendJSONFloat(buf[:0], -1.5e-9); string(buf) != "-1.5e-9" {
			t.Fatalf("appendJSONFloat writes %s", buf)
		}
	})
	if allocs > 0 {
		t.Fatalf("the float conversions allocate %.1f times, want 0", allocs)
	}
}

// FuzzJSONFloat holds the pair to the standard library. Read as a
// float64's bits, the first 8 bytes of a finite value must be written as
// json.Marshal writes them and read back to the same bits; read as text,
// whatever scanJSONFloat takes for a number must be a JSON number that
// strconv.ParseFloat converts to the same bits.
func FuzzJSONFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "0.8401877171547095", "1e-9", "1.5e+21", "9007199254740993", "1e-400", "1e999",
		"123456789012345678901234567890e-10", "5e-324", "2.2250738585072011e-308", "0.1", "1_0", "01", "-.5"} {
		f.Add([]byte(s))
	}
	for _, v := range []float64{0.1, 1e-6, 1e21, 5e-324, math.MaxFloat64, 1125899906842624.25} {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) && !math.IsInf(v, 0) {
				c := floatChecker{t: t}
				c.check(v)
				c.flush()
			}
		}
		v, end := scanJSONFloat(data, 0)
		if end < 0 {
			return
		}
		text := data[:end]
		want, err := strconv.ParseFloat(string(text), 64)
		if !json.Valid(text) || math.Float64bits(v) != math.Float64bits(want) || (err != nil) != math.IsInf(v, 0) {
			t.Fatalf("%q: scanJSONFloat reads %v, ParseFloat %v (%v), valid JSON %v", text, v, want, err, json.Valid(text))
		}
	})
}

// skewedCoordinates returns the 32 768 coordinates of 16 384 Skewed
// points, the serving benchmark's distribution, and their JSON texts.
func skewedCoordinates() ([]float64, [][]byte) {
	var vs []float64
	var texts [][]byte
	for _, p := range dataset.Generate(dataset.Skewed, 1<<14, 38) {
		for _, v := range []float64{p.X, p.Y} {
			vs = append(vs, v)
			texts = append(texts, appendJSONFloat(nil, v))
		}
	}
	return vs, texts
}

// BenchmarkAppendJSONFloat is the encoder's own number: one Skewed
// coordinate written as JSON text per op.
func BenchmarkAppendJSONFloat(b *testing.B) {
	vs, _ := skewedCoordinates()
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendJSONFloat(buf[:0], vs[i&(len(vs)-1)])
	}
}

// BenchmarkScanJSONFloat is the scanner's own number: one Skewed
// coordinate's JSON text read per op.
func BenchmarkScanJSONFloat(b *testing.B) {
	_, texts := skewedCoordinates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, end := scanJSONFloat(texts[i&(len(texts)-1)], 0); end < 0 {
			b.Fatal("not a number")
		}
	}
}
