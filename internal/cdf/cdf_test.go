package cdf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func uniformCoords(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func TestEvalMonotoneAndBounded(t *testing.T) {
	f := New(uniformCoords(5000, 1), DefaultGamma)
	prev := -1.0
	for x := -0.2; x <= 1.2; x += 0.001 {
		v := f.Eval(x)
		if v < 0 || v > 1 {
			t.Fatalf("Eval(%v) = %v out of [0,1]", x, v)
		}
		if v < prev {
			t.Fatalf("Eval not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestEvalApproximatesUniformCDF(t *testing.T) {
	f := New(uniformCoords(20000, 2), DefaultGamma)
	for x := 0.05; x < 1; x += 0.05 {
		if got := f.Eval(x); math.Abs(got-x) > 0.02 {
			t.Errorf("uniform Eval(%v) = %v, want ~%v", x, got, x)
		}
	}
}

func TestEvalApproximatesSkewedCDF(t *testing.T) {
	// y = u^4 has CDF F(y) = y^(1/4).
	rng := rand.New(rand.NewSource(3))
	coords := make([]float64, 20000)
	for i := range coords {
		u := rng.Float64()
		coords[i] = u * u * u * u
	}
	f := New(coords, DefaultGamma)
	for y := 0.05; y < 1; y += 0.05 {
		want := math.Pow(y, 0.25)
		if got := f.Eval(y); math.Abs(got-want) > 0.03 {
			t.Errorf("skewed Eval(%v) = %v, want ~%v", y, got, want)
		}
	}
}

func TestEvalAgainstEmpiricalCDFProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(2000)
		coords := make([]float64, n)
		for i := range coords {
			coords[i] = rng.NormFloat64()
		}
		pm := New(coords, DefaultGamma)
		sorted := append([]float64(nil), coords...)
		sort.Float64s(sorted)
		// PMF must track the empirical CDF within a few partition widths.
		for i := 0; i < 20; i++ {
			x := sorted[rng.Intn(n)]
			emp := float64(sort.SearchFloat64s(sorted, x)) / float64(n)
			if math.Abs(pm.Eval(x)-emp) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAlphaUniformIsAboutOne(t *testing.T) {
	f := New(uniformCoords(50000, 4), DefaultGamma)
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		a := f.Alpha(x, DefaultDelta)
		if a < 0.8 || a > 1.25 {
			t.Errorf("uniform Alpha(%v) = %v, want ~1", x, a)
		}
	}
}

func TestAlphaReflectsSkew(t *testing.T) {
	// Dense near 0, sparse near 1 (y^4 skew): alpha must be < 1 in the
	// dense region and > 1 in the sparse region.
	rng := rand.New(rand.NewSource(5))
	coords := make([]float64, 50000)
	for i := range coords {
		u := rng.Float64()
		coords[i] = u * u * u * u
	}
	f := New(coords, DefaultGamma)
	if a := f.Alpha(0.01, DefaultDelta); a >= 1 {
		t.Errorf("Alpha in dense region = %v, want < 1", a)
	}
	if a := f.Alpha(0.9, DefaultDelta); a <= 1 {
		t.Errorf("Alpha in sparse region = %v, want > 1", a)
	}
}

func TestAlphaClamped(t *testing.T) {
	// All mass in [0, 0.1]: probing far away (both directions empty) must
	// return the cap, not Inf.
	rng := rand.New(rand.NewSource(12))
	coords := make([]float64, 1000)
	for i := range coords {
		coords[i] = rng.Float64() * 0.1
	}
	f := New(coords, DefaultGamma)
	if a := f.Alpha(0.99, DefaultDelta); a != maxAlpha {
		t.Errorf("Alpha in empty region = %v, want cap %v", a, maxAlpha)
	}
	if a := f.Alpha(0.05, 0); a <= 0 { // zero delta selects the default
		t.Errorf("Alpha with default delta = %v", a)
	}
}

func TestAlphaBackwardProbe(t *testing.T) {
	// Query at the very top of the range: forward probe has no mass, the
	// backward probe must rescue the estimate.
	coords := uniformCoords(10000, 6)
	f := New(coords, DefaultGamma)
	a := f.Alpha(1.0, DefaultDelta)
	if a >= maxAlpha {
		t.Errorf("Alpha(1.0) = %v, backward probe should keep it finite", a)
	}
}

func TestDegenerateInputs(t *testing.T) {
	for _, coords := range [][]float64{nil, {0.4}, {0.7, 0.7, 0.7}} {
		f := New(coords, DefaultGamma)
		if v := f.Eval(0.5); v < 0 || v > 1 {
			t.Errorf("degenerate Eval out of range: %v", v)
		}
		if a := f.Alpha(0.5, DefaultDelta); a <= 0 {
			t.Errorf("degenerate Alpha non-positive: %v", a)
		}
	}
}

func TestGammaControlsPieces(t *testing.T) {
	coords := uniformCoords(10000, 7)
	small := New(coords, 4)
	large := New(coords, 200)
	if small.Pieces() > 4 {
		t.Errorf("gamma=4 produced %d pieces", small.Pieces())
	}
	if large.Pieces() <= small.Pieces() {
		t.Errorf("more gamma must give more pieces: %d vs %d", large.Pieces(), small.Pieces())
	}
	if def := New(coords, 0); def.Pieces() > DefaultGamma {
		t.Errorf("default gamma produced %d pieces", def.Pieces())
	}
}

func TestGammaLargerThanN(t *testing.T) {
	coords := uniformCoords(10, 8)
	f := New(coords, 100)
	if f.Pieces() > 10 {
		t.Errorf("gamma must clamp to n: %d pieces for 10 points", f.Pieces())
	}
	if v := f.Eval(0.5); v < 0 || v > 1 {
		t.Errorf("Eval out of range: %v", v)
	}
}

func TestSizeBytes(t *testing.T) {
	f := New(uniformCoords(10000, 9), 100)
	want := int64(len(f.knots)) * 16
	if got := f.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

// TestEvalNaN: NaN lies in no piece; Eval and Alpha must not index past the
// knots looking for one.
func TestEvalNaN(t *testing.T) {
	f := New([]float64{0.1, 0.2, 0.4, 0.8, 0.9}, 4)
	if got := f.Eval(math.NaN()); got != 0 {
		t.Errorf("Eval(NaN) = %v, want 0", got)
	}
	if got := f.Alpha(math.NaN(), DefaultDelta); got != maxAlpha {
		t.Errorf("Alpha(NaN) = %v, want the cap %v", got, maxAlpha)
	}
}

// referenceNew is New as it was before selection: every knot read from a
// full sort.Float64s of a copy of the coordinates. TestNewIsTheSortedPMF
// demands its bits from New.
func referenceNew(coords []float64, gamma int) *PMF {
	if gamma <= 0 {
		gamma = DefaultGamma
	}
	n := len(coords)
	if n < 2 {
		return &PMF{knots: []float64{0, 1}, cum: []float64{0, 1}}
	}
	sorted := append([]float64(nil), coords...)
	sort.Float64s(sorted)
	if sorted[0] == sorted[n-1] {
		return &PMF{knots: []float64{sorted[0], sorted[0] + 1}, cum: []float64{0, 1}}
	}
	if gamma > n {
		gamma = n
	}
	knots := []float64{sorted[0]}
	cum := []float64{0}
	for i := 1; i <= gamma; i++ {
		idx := i*n/gamma - 1
		k := sorted[idx]
		c := float64(idx+1) / float64(n)
		if k == knots[len(knots)-1] {
			cum[len(cum)-1] = c
			continue
		}
		knots = append(knots, k)
		cum = append(cum, c)
	}
	return &PMF{knots: knots, cum: cum}
}

// TestNewIsTheSortedPMF: knots and cumulative counts found by selection are
// the bits a full sort gives, on inputs heavy with ties, constant, of two
// points, sorted either way, holding NaNs, and at γ of 1, 100 and n. New
// leaves its input as it was.
func TestNewIsTheSortedPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gen := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		coords []float64
	}{
		{"uniform", uniformCoords(5000, 14)},
		{"three values", gen(3000, func(int) float64 { return float64(rng.Intn(3)) / 4 })},
		{"mostly one value", gen(3000, func(int) float64 {
			if rng.Intn(10) > 0 {
				return 0.5
			}
			return rng.Float64()
		})},
		{"runs of 40", gen(4000, func(int) float64 { return float64(rng.Intn(100)) / 100 })},
		{"constant", gen(500, func(int) float64 { return 0.3 })},
		{"two points", []float64{0.7, 0.2}},
		{"two equal points", []float64{0.4, 0.4}},
		{"ascending", gen(2000, func(i int) float64 { return float64(i) })},
		{"descending", gen(2000, func(i int) float64 { return float64(-i) })},
		{"organ pipe", gen(2001, func(i int) float64 { return math.Abs(float64(i - 1000)) })},
		{"NaNs", gen(1000, func(i int) float64 {
			if i%7 == 0 {
				return math.NaN()
			}
			return rng.Float64()
		})},
	} {
		for _, gamma := range []int{1, 100, len(c.coords)} {
			in := append([]float64(nil), c.coords...)
			got, want := New(in, gamma), referenceNew(c.coords, gamma)
			for i, v := range in {
				if math.Float64bits(v) != math.Float64bits(c.coords[i]) {
					t.Fatalf("%s, γ = %d: New modified its input at %d", c.name, gamma, i)
				}
			}
			if !samePMF(got, want) {
				t.Errorf("%s, γ = %d: knots %v cums %v, sort gives %v %v",
					c.name, gamma, got.knots, got.cum, want.knots, want.cum)
			}
		}
	}
}

func samePMF(a, b *PMF) bool {
	if len(a.knots) != len(b.knots) || len(a.cum) != len(b.cum) {
		return false
	}
	for i := range a.knots {
		if math.Float64bits(a.knots[i]) != math.Float64bits(b.knots[i]) {
			return false
		}
	}
	for i := range a.cum {
		if math.Float64bits(a.cum[i]) != math.Float64bits(b.cum[i]) {
			return false
		}
	}
	return true
}

// TestSelectOrderedAtEveryDepth: whichever depth the partitions stop at and
// the sort takes over, every wanted rank holds its sorted value.
func TestSelectOrderedAtEveryDepth(t *testing.T) {
	coords := uniformCoords(3000, 15)
	for i := 0; i < len(coords); i += 5 {
		coords[i] = coords[i/2] // ties
	}
	sorted := append([]float64(nil), coords...)
	sort.Float64s(sorted)
	ranks := []int{0, 1, 29, 30, 31, 1499, 1500, 2998, 2999}
	for depth := 0; depth <= 24; depth++ {
		a := append([]float64(nil), coords...)
		selectOrdered(a, 0, ranks, depth)
		for _, r := range ranks {
			if a[r] != sorted[r] {
				t.Errorf("depth %d: rank %d holds %v, sorted %v", depth, r, a[r], sorted[r])
			}
		}
	}
}

// BenchmarkNew is one of a shard's two PMFs at embed-read's scale: 100k
// coordinates, γ = 100.
func BenchmarkNew(b *testing.B) {
	coords := uniformCoords(100_000, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(coords, DefaultGamma)
	}
}
