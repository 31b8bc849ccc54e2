package mlp

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// tableSigmoidAt is the table's sigmoid at pre-activation x.
func tableSigmoidAt(x float64) float64 {
	return tableSigmoid((x + tableSpan) * tableScale)
}

// TestSigmoidTable pins the table: monotone, total, and within the pinned
// error of the exact sigmoid 1/(1+e^-x).
func TestSigmoidTable(t *testing.T) {
	var worst float64
	prev := 0.0
	for x := -40.0; x <= 40; x += 1.0 / 1024 {
		got := tableSigmoidAt(x)
		if got < prev {
			t.Fatalf("table sigmoid decreases at %v: %v after %v", x, got, prev)
		}
		prev = got
		worst = max(worst, math.Abs(got-1/(1+math.Exp(-x))))
	}
	t.Logf("worst |table − sigmoid| on [-40, 40]: %.3g", worst)
	if worst > sigmoidTableError || sigmoidTableError > 2e-6 {
		t.Errorf("worst table error %.3g, pinned %.3g (and the pin must stay ≤ 2e-6)", worst, sigmoidTableError)
	}
	if got := tableSigmoidAt(0); got != 0.5 {
		t.Errorf("table sigmoid at 0 = %v, want 0.5", got)
	}
	// Total: nothing indexes outside the table, whatever the coordinate.
	lo, hi := sigmoidTable[0], sigmoidTable[tableSteps]
	for _, c := range []struct{ t, want float64 }{
		{math.NaN(), lo}, {math.Inf(-1), lo}, {-1e300, lo}, {-1, lo}, {0, lo}, {math.Copysign(0, -1), lo},
		{tableSteps, hi}, {tableSteps + 0.5, hi}, {1e300, hi}, {math.Inf(1), hi},
		{math.Nextafter(tableSteps, 0), hi},
	} {
		if got := tableSigmoid(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tableSigmoid(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestSigmoidTableBits pins every bit of the table. It is built from
// individually rounded operations so that it is the same on every GOARCH —
// a snapshot's error bounds are valid only under the table they were
// measured with — and this is the test that fails where it is not.
func TestSigmoidTableBits(t *testing.T) {
	h := fnv.New64a()
	for _, v := range sigmoidTable {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	const want = uint64(0xc81f334739aee29e)
	if got := h.Sum64(); got != want {
		t.Errorf("sigmoid table hashes to %#x on %s, pinned %#x", got, runtime.GOARCH, want)
	}
}

// randomNetwork returns an untrained-but-perturbed two-input network: weights
// spread wide enough that hidden units reach both saturated ends of the table.
func randomNetwork(rng *rand.Rand, hidden int) *Network {
	n := New(Config{Inputs: 2, Hidden: hidden, Seed: rng.Int63()})
	for j := range n.units {
		n.units[j].wx *= 1 + 30*rng.Float64()
		n.units[j].wy *= 1 + 30*rng.Float64()
	}
	for j := range n.units {
		n.units[j].b = 8 * rng.NormFloat64()
	}
	n.b2 = rng.NormFloat64()
	return n
}

// unitNormalise is the normalisation the index applies to training inputs.
func unitNormalise(v, lo, hi float64) float64 {
	if hi-lo > 0 {
		return (v - lo) / (hi - lo)
	}
	return 0.5
}

// TestKernelTracksNetwork: over random networks × rectangles (zero-width and
// zero-height ones included) the kernel's output stays within the table's
// pinned error × Σ|w2'| of (classes−1)·Predict(normalised input), plus the
// float rounding of folding the normalisation into the weights; and Predict
// is that output rounded and clamped.
func TestKernelTracksNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		hidden := 1 + rng.Intn(60)
		classes := 1 + rng.Intn(200)
		net := randomNetwork(rng, hidden)
		minX, minY := 2000*rng.Float64()-1000, 2000*rng.Float64()-1000
		maxX, maxY := minX+math.Exp(6*rng.NormFloat64()), minY+math.Exp(6*rng.NormFloat64())
		switch trial % 5 {
		case 1:
			maxX = minX // zero width
		case 2:
			maxY = minY // zero height
		case 3:
			maxX, maxY = minX, minY // a single point
		}
		k := Compile(net, minX, minY, maxX, maxY, classes)
		if k.Classes() != classes {
			t.Fatalf("Classes() = %d, compiled for %d", k.Classes(), classes)
		}
		var sumW2, sumW1 float64
		for _, u := range k.units {
			sumW2 += math.Abs(u.w2)
			sumW1 = max(sumW1, (math.Abs(u.wx*maxX)+math.Abs(u.wx*minX)+math.Abs(u.wy*maxY)+math.Abs(u.wy*minY)+math.Abs(u.b))/tableScale)
		}
		// A pre-activation off by δ moves a sigmoid by at most δ/4; folding
		// costs a few ulps of the largest term in the folded sum.
		tol := sumW2 * (sigmoidTableError + sumW1*1e-15)
		tol += 1e-12 * (1 + math.Abs(k.bias))
		for probe := 0; probe < 40; probe++ {
			// Inside the rectangle and up to one extent outside it.
			x := minX + (3*rng.Float64()-1)*(maxX-minX)
			y := minY + (3*rng.Float64()-1)*(maxY-minY)
			want := float64(classes-1) * net.Predict([]float64{unitNormalise(x, minX, maxX), unitNormalise(y, minY, maxY)})
			got := k.value(x, y)
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d (hidden %d, classes %d, rect [%v,%v]x[%v,%v]): value(%v, %v) = %v, network %v, off by %.3g > %.3g",
					trial, hidden, classes, minX, maxX, minY, maxY, x, y, got, want, math.Abs(got-want), tol)
			}
			class := int(math.Round(math.Max(0, math.Min(got, float64(classes-1)))))
			if c := k.Predict(x, y); c != class && math.Abs(got-math.Floor(got)-0.5) > 1e-9 {
				t.Fatalf("trial %d: Predict(%v, %v) = %d, value %v rounds to %d", trial, x, y, c, got, class)
			}
		}
	}
}

// TestKernelPredictTotal: NaN and ±Inf inputs, and parameters that overflow
// the output, return a class in range and never panic; so does the zero
// kernel, which predicts class 0 of 1.
func TestKernelPredictTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	nasty := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		5e-324, 0, math.Copysign(0, -1), 1, -1}
	kernels := []Kernel{
		{},
		Compile(randomNetwork(rng, 33), 0, 0, 1, 1, 64),
		Compile(randomNetwork(rng, 9), -5, 3, -5, 3, 2),
		Compile(randomNetwork(rng, 17), 0, 0, 5e-324, 1e308, 100),
		Compile(randomNetwork(rng, 4), math.Inf(-1), 0, math.Inf(1), 1, 7),
		Compile(randomNetwork(rng, 4), 1, 1, 0, math.NaN(), 1),
		{units: []unit{{wx: 1e308, wy: -1e308, b: 1e308, w2: 1e308}, {wx: -1e308, w2: 1e308}}, bias: -1e308, last: 9},
	}
	if got := kernels[0].Classes(); got != 1 {
		t.Errorf("zero kernel has %d classes, want 1", got)
	}
	for i := range kernels {
		k := &kernels[i]
		for _, x := range nasty {
			for _, y := range nasty {
				if c := k.Predict(x, y); c < 0 || c >= k.Classes() {
					t.Errorf("kernel %d: Predict(%v, %v) = %d, outside [0, %d)", i, x, y, c, k.Classes())
				}
			}
		}
	}
	// A compiled kernel never carries a parameter its own codec refuses.
	for i := 1; i < 6; i++ {
		var buf bytes.Buffer
		if _, err := kernels[i].WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadKernel(&buf); err != nil {
			t.Errorf("kernel %d: compiled kernel does not survive its codec: %v", i, err)
		}
	}
}

// TestKernelPredictNoAlloc pins //rsmi:noalloc on Predict.
func TestKernelPredictNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, hidden := range []int{2, 33, 51, 200} {
		k := Compile(randomNetwork(rng, hidden), 0, 0, 1, 1, 2*hidden)
		sink := 0
		if a := testing.AllocsPerRun(100, func() { sink += k.Predict(0.25, 0.75) }); a != 0 {
			t.Errorf("hidden %d: Predict allocates %v times per call, want 0", hidden, a)
		}
	}
}

func TestCompileRefusesBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"one-input network": func() { Compile(New(Config{Inputs: 1, Hidden: 4}), 0, 0, 1, 1, 4) },
		"no classes":        func() { Compile(New(Config{Inputs: 2, Hidden: 4}), 0, 0, 1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compile of a %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func encodeKernel(t testing.TB, k *Kernel) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := k.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) || n != k.SizeBytes() {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes, SizeBytes %d", n, err, buf.Len(), k.SizeBytes())
	}
	return buf.Bytes()
}

// TestKernelCodecRoundTrip: a decoded kernel is the written predictor bit
// for bit, and the decoder consumes exactly the kernel's bytes.
func TestKernelCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, hidden := range []int{0, 1, 33, 127, 128, 129, 700} {
		k := Kernel{}
		if hidden > 0 {
			k = Compile(randomNetwork(rng, hidden), -3, 2, 8, 2.5, 1+rng.Intn(300))
		}
		raw := encodeKernel(t, &k)
		r := bytes.NewReader(append(raw, 0xAA, 0xBB))
		got, err := ReadKernel(r)
		if err != nil {
			t.Fatalf("hidden %d: %v", hidden, err)
		}
		if r.Len() != 2 {
			t.Errorf("hidden %d: decoder left %d bytes, want the 2 that follow the kernel", hidden, r.Len())
		}
		if !bytes.Equal(encodeKernel(t, &got), raw) {
			t.Fatalf("hidden %d: re-encoded kernel differs", hidden)
		}
		for i := 0; i < 200; i++ {
			x, y := 20*rng.Float64()-8, 3*rng.Float64()
			if a, b := k.value(x, y), got.value(x, y); a != b {
				t.Fatalf("hidden %d: value(%v, %v) = %v before, %v after the codec", hidden, x, y, a, b)
			}
		}
	}
}

// kernelBytes hand-assembles a kernel stream.
func kernelBytes(classes, hidden int32, bias float64, params ...float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(classes))
	b = binary.LittleEndian.AppendUint32(b, uint32(hidden))
	for _, f := range append([]float64{bias}, params...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// TestReadKernelRejects: implausible shapes, non-finite parameters and
// truncated bodies are errors; and a header promising the largest kernel
// over a short body is refused after allocating next to nothing.
func TestReadKernelRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short header":     kernelBytes(4, 1, 0)[:10],
		"zero classes":     kernelBytes(0, 0, 0),
		"negative classes": kernelBytes(-3, 0, 0),
		"too many classes": kernelBytes(maxKernelDim+1, 0, 0),
		"negative hidden":  kernelBytes(4, -1, 0),
		"too wide":         kernelBytes(4, maxKernelDim+1, 0),
		"NaN bias":         kernelBytes(4, 0, math.NaN()),
		"Inf bias":         kernelBytes(4, 0, math.Inf(1)),
		"NaN weight":       kernelBytes(4, 1, 0, 1, math.NaN(), 3, 4),
		"-Inf weight":      kernelBytes(4, 2, 0, 1, 2, 3, 4, 5, 6, 7, math.Inf(-1)),
		"truncated unit":   kernelBytes(4, 2, 0, 1, 2, 3, 4, 5, 6),
		"missing units":    kernelBytes(4, 3, 0),
	}
	for name, data := range cases {
		if _, err := ReadKernel(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadKernel accepted it", name)
		}
	}

	// 1000 real units, then the stream ends; the header claims 2^20 (32 MB).
	body := kernelBytes(4, maxKernelDim, 0, make([]float64, 4000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadKernel(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadKernel accepted a truncated million-unit kernel")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(body)) {
		t.Errorf("decoding %d bytes of a kernel that claims 32 MB allocated %d bytes", len(body), grew)
	}
}

// FuzzReadKernel: arbitrary bytes either fail to decode or yield a kernel
// that re-encodes to the bytes consumed and predicts in range on any input.
// The seed corpus (valid kernels, non-finite parameters, lying and truncated
// headers) is committed under testdata/fuzz/FuzzReadKernel.
func FuzzReadKernel(f *testing.F) {
	small := Compile(randomNetwork(rand.New(rand.NewSource(21)), 3), 0, 0, 1, 1, 16)
	f.Add(encodeKernel(f, &small))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		k, err := ReadKernel(r)
		if err != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		if got := encodeKernel(t, &k); !bytes.Equal(got, used) {
			t.Fatalf("decoded kernel re-encodes to %d bytes that differ from the %d consumed", len(got), len(used))
		}
		for _, x := range []float64{0, 0.5, -1e300, math.NaN(), math.Inf(1)} {
			for _, y := range []float64{1, math.Inf(-1), math.NaN()} {
				if c := k.Predict(x, y); c < 0 || c >= k.Classes() {
					t.Fatalf("Predict(%v, %v) = %d, outside [0, %d)", x, y, c, k.Classes())
				}
			}
		}
	})
}

func BenchmarkKernelPredict(b *testing.B) {
	k := Compile(New(Config{Inputs: 2, Hidden: 51, Seed: 1}), 0, 0, 1, 1, 100)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += k.Predict(float64(i&1023)/1024, 0.6)
	}
	_ = sink
}
