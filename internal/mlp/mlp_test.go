package mlp

import (
	"math"
	"math/rand"
	"testing"
)

func TestHiddenFor(t *testing.T) {
	tests := []struct {
		inputs, classes, want int
	}{
		{2, 100, 51}, // RSMI leaf model, §6.1
		{1, 100, 50}, // ZM leaf model
		{2, 0, 2},    // floor
		{1, 1, 2},    // floor
	}
	for _, tc := range tests {
		if got := HiddenFor(tc.inputs, tc.classes); got != tc.want {
			t.Errorf("HiddenFor(%d,%d) = %d, want %d", tc.inputs, tc.classes, got, tc.want)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{{Inputs: 0, Hidden: 4}, {Inputs: 2, Hidden: 0}, {Inputs: 3, Hidden: 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDeterministicInitialisation(t *testing.T) {
	cfg := Config{Inputs: 2, Hidden: 8, Seed: 42}
	a, b := New(cfg), New(cfg)
	x := []float64{0.3, 0.7}
	if a.Predict(x) != b.Predict(x) {
		t.Error("same seed must produce identical networks")
	}
	c := New(Config{Inputs: 2, Hidden: 8, Seed: 43})
	if a.Predict(x) == c.Predict(x) {
		t.Error("different seeds should produce different networks")
	}
}

func TestPredictPanicsOnWrongArity(t *testing.T) {
	n := New(Config{Inputs: 2, Hidden: 4})
	defer func() {
		if recover() == nil {
			t.Error("Predict with wrong arity did not panic")
		}
	}()
	n.Predict([]float64{1})
}

func TestTrainLearnsLinearCDF(t *testing.T) {
	// A 1-input model must be able to learn the identity CDF (uniform data).
	cfg := Config{Inputs: 1, Hidden: 8, LearningRate: 0.1, Epochs: 300, Seed: 1}
	n := New(cfg)
	const m = 256
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		xs[i] = float64(i) / (m - 1)
		ys[i] = xs[i]
	}
	mse := n.Train(cfg, xs, ys)
	if mse > 1e-3 {
		t.Fatalf("MSE after training = %g, want <= 1e-3", mse)
	}
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := n.Predict([]float64{x}); math.Abs(got-x) > 0.08 {
			t.Errorf("Predict(%v) = %v, want ~%v", x, got, x)
		}
	}
}

func TestTrainLearnsStepCDF(t *testing.T) {
	// A skewed CDF with a sharp knee: 80% of the mass in the first 20% of
	// the keys, the shape rank-space ordering is designed to produce less of.
	cfg := Config{Inputs: 1, Hidden: 12, LearningRate: 0.15, Epochs: 600, Seed: 7}
	n := New(cfg)
	const m = 400
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		f := float64(i) / (m - 1)
		if f < 0.8 {
			xs[i] = f * 0.25 // dense region
		} else {
			xs[i] = 0.2 + (f-0.8)*4 // sparse region
		}
		ys[i] = f
	}
	mse := n.Train(cfg, xs, ys)
	if mse > 5e-3 {
		t.Fatalf("MSE = %g, want <= 5e-3", mse)
	}
}

func TestTrainLearns2DBlockMapping(t *testing.T) {
	// The RSMI leaf task in miniature: map 2-D coordinates, ordered by a
	// diagonal sweep, to normalised block ids.
	cfg := Config{Inputs: 2, Hidden: 16, LearningRate: 0.2, Epochs: 400, Seed: 3}
	n := New(cfg)
	rng := rand.New(rand.NewSource(9))
	const m = 500
	xs := make([]float64, 0, 2*m)
	ys := make([]float64, 0, m)
	type pt struct{ x, y float64 }
	pts := make([]pt, m)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	// Order by x+y (a crude curve) and use rank as target.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < m; i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && pts[idx[j]].x+pts[idx[j]].y < pts[idx[j-1]].x+pts[idx[j-1]].y; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	ranks := make([]float64, m)
	for r, i := range idx {
		ranks[i] = float64(r) / (m - 1)
	}
	for i := range pts {
		xs = append(xs, pts[i].x, pts[i].y)
		ys = append(ys, ranks[i])
	}
	mse := n.Train(cfg, xs, ys)
	if mse > 1e-2 {
		t.Fatalf("2D MSE = %g, want <= 1e-2", mse)
	}
	// Max error in block units for 10 blocks must be small.
	var maxErr float64
	for i := range ys {
		e := math.Abs(n.Predict(xs[2*i:2*i+2]) - ys[i])
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.3 {
		t.Errorf("max normalised error = %v, want <= 0.3", maxErr)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := Config{Inputs: 1, Hidden: 6, LearningRate: 0.1, Epochs: 50, Seed: 5}
	mk := func() float64 {
		n := New(cfg)
		xs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
		ys := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
		n.Train(cfg, xs, ys)
		return n.Predict([]float64{0.5})
	}
	if mk() != mk() {
		t.Error("training is not deterministic for a fixed seed")
	}
}

func TestTrainEmptyAndMismatched(t *testing.T) {
	cfg := Config{Inputs: 1, Hidden: 4}
	n := New(cfg)
	if got := n.Train(cfg, nil, nil); got != 0 {
		t.Errorf("Train on empty set = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched Train did not panic")
		}
	}()
	n.Train(cfg, []float64{1, 2, 3}, []float64{1})
}

func TestEarlyStopping(t *testing.T) {
	// With a trivially learnable constant target, early stopping must kick
	// in well before the epoch limit; detect it via identical results with
	// wildly different epoch budgets.
	xs := make([]float64, 64)
	ys := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) / 63
		ys[i] = 0.5
	}
	cfgA := Config{Inputs: 1, Hidden: 4, LearningRate: 0.5, Epochs: 10000, TargetLoss: 1e-4, Seed: 2}
	a := New(cfgA)
	mseA := a.Train(cfgA, xs, ys)
	if mseA > 1e-4 {
		t.Fatalf("early-stopped MSE = %g, want <= 1e-4", mseA)
	}
	cfgB := cfgA
	cfgB.Epochs = 20000
	b := New(cfgB)
	b.Train(cfgB, xs, ys)
	if a.Predict([]float64{0.3}) != b.Predict([]float64{0.3}) {
		t.Error("early stopping did not stop at the same epoch for both budgets")
	}
}

func TestLoss(t *testing.T) {
	cfg := Config{Inputs: 1, Hidden: 4, Seed: 1}
	n := New(cfg)
	if got := n.Loss(nil, nil); got != 0 {
		t.Errorf("Loss(empty) = %v", got)
	}
	xs := []float64{0.1, 0.9}
	ys := []float64{n.Predict([]float64{0.1}), n.Predict([]float64{0.9})}
	if got := n.Loss(xs, ys); got != 0 {
		t.Errorf("Loss on own predictions = %v, want 0", got)
	}
}

func TestSizeBytes(t *testing.T) {
	// Per hidden neuron one weight per input, a bias and an output weight,
	// plus the output bias: a one-input network's unused wy is not storage.
	for _, tc := range []struct{ inputs, hidden int }{{2, 51}, {1, 50}, {1, 2}, {2, 80}} {
		n := New(Config{Inputs: tc.inputs, Hidden: tc.hidden})
		want := int64(tc.hidden*(tc.inputs+2)+1) * 8
		if got := n.SizeBytes(); got != want {
			t.Errorf("%d inputs, %d hidden: SizeBytes = %d, want %d", tc.inputs, tc.hidden, got, want)
		}
	}
}

// TestSigmoid: the one sigmoid of the package — training, Network.Predict and
// the Kernel all read the table — is exact at 0, saturates and never
// decreases. TestSigmoidTable bounds its distance from 1/(1+e^-x).
func TestSigmoid(t *testing.T) {
	if s := tableSigmoidAt(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v, want exactly 0.5", s)
	}
	if s := tableSigmoidAt(100); s <= 0.999 || s > 1 {
		t.Errorf("sigmoid(100) = %v", s)
	}
	if s := tableSigmoidAt(-100); s >= 0.001 || s < 0 {
		t.Errorf("sigmoid(-100) = %v", s)
	}
	prev := 0.0
	for x := -20.0; x <= 20; x += 1.0 / 64 {
		s := tableSigmoidAt(x)
		if s < prev {
			t.Fatalf("sigmoid decreases at %v: %v after %v", x, s, prev)
		}
		prev = s
	}
	// A network of one neuron with unit output weight is that sigmoid.
	n := New(Config{Inputs: 1, Hidden: 1})
	n.units[0] = unit{wx: 1, w2: 1}
	for _, x := range []float64{-3, 0, 0.25, 7} {
		if got, want := n.Predict([]float64{x}), tableSigmoidAt(x); got != want {
			t.Errorf("one-neuron Predict(%v) = %v, table sigmoid %v", x, got, want)
		}
	}
}

// TestPredictNoAlloc pins //rsmi:noalloc on Network.Predict at every width
// (the forward pass used to keep its activations, on the heap above 64).
func TestPredictNoAlloc(t *testing.T) {
	for _, tc := range []struct{ inputs, hidden int }{{1, 50}, {2, 51}, {2, 80}, {1, 500}} {
		n := New(Config{Inputs: tc.inputs, Hidden: tc.hidden, Seed: 1})
		x := []float64{0.25, 0.75}[:tc.inputs]
		var sink float64
		if a := testing.AllocsPerRun(100, func() { sink += n.Predict(x) }); a != 0 {
			t.Errorf("%d inputs, %d hidden: Predict allocates %v times per call, want 0", tc.inputs, tc.hidden, a)
		}
	}
}

// referenceNetwork is the network and the training loop this package had
// before the fused step: weights in separate row-major slices, any number of
// inputs, and three passes per sample (forward; output layer and hidden
// deltas; hidden layer). It is kept as the definition of "the same SGD" —
// TestFusedStepIsReferenceStep demands its bits from New and Train. It reads
// the table sigmoid and rounds every product before adding it, as the fused
// step does, so the comparison holds where the compiler would otherwise fuse
// multiply-adds.
type referenceNetwork struct {
	inputs, hidden int
	w1, b1, w2     []float64 // w1 is row-major [hidden][inputs]
	b2             float64
}

func newReference(cfg Config) *referenceNetwork {
	n := &referenceNetwork{
		inputs: cfg.Inputs,
		hidden: cfg.Hidden,
		w1:     make([]float64, cfg.Hidden*cfg.Inputs),
		b1:     make([]float64, cfg.Hidden),
		w2:     make([]float64, cfg.Hidden),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lim1 := 1 / math.Sqrt(float64(cfg.Inputs))
	for i := range n.w1 {
		n.w1[i] = rng.Float64()*2*lim1 - lim1
	}
	lim2 := 1 / math.Sqrt(float64(cfg.Hidden))
	for i := range n.w2 {
		n.w2[i] = rng.Float64()*2*lim2 - lim2
	}
	return n
}

func (n *referenceNetwork) predictInto(x, h []float64) float64 {
	out := n.b2
	for j := 0; j < n.hidden; j++ {
		s := n.b1[j]
		row := n.w1[j*n.inputs : (j+1)*n.inputs]
		for i, xi := range x {
			s += float64(row[i] * xi)
		}
		hj := tableSigmoidAt(s)
		h[j] = hj
		out += float64(n.w2[j] * hj)
	}
	return out
}

func (n *referenceNetwork) train(cfg Config, xs, ys []float64) float64 {
	lr, epochs := cfg.LearningRate, cfg.Epochs
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := make([]int, len(ys))
	for i := range order {
		order[i] = i
	}
	dh := make([]float64, n.hidden)
	h := make([]float64, n.hidden)
	var mse float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sse float64
		for _, s := range order {
			x := xs[s*n.inputs : (s+1)*n.inputs]
			err := n.predictInto(x, h) - ys[s]
			sse += float64(err * err)
			for j := 0; j < n.hidden; j++ {
				hj := h[j]
				dh[j] = float64(float64(float64(err*n.w2[j])*hj) * (1 - hj))
				n.w2[j] -= float64(float64(lr*err) * hj)
			}
			n.b2 -= float64(lr * err)
			for j := 0; j < n.hidden; j++ {
				row := n.w1[j*n.inputs : (j+1)*n.inputs]
				for i, xi := range x {
					row[i] -= float64(float64(lr*dh[j]) * xi)
				}
				n.b1[j] -= float64(lr * dh[j])
			}
		}
		mse = sse / float64(len(ys))
		if cfg.TargetLoss > 0 && mse <= cfg.TargetLoss {
			break
		}
	}
	return mse
}

// TestFusedStepIsReferenceStep: New draws and Train moves every parameter to
// exactly the bits of the generic three-pass loop — same update rule, sample
// order, seeds and early-stop epoch — for both arities, hidden widths on
// either side of every size the old scratch buffers special-cased, and with
// early stopping on and off.
func TestFusedStepIsReferenceStep(t *testing.T) {
	const m = 400
	rng := rand.New(rand.NewSource(31))
	for _, inputs := range []int{1, 2} {
		xs := make([]float64, m*inputs)
		ys := make([]float64, m)
		for s := range ys {
			for i := 0; i < inputs; i++ {
				xs[s*inputs+i] = rng.Float64()
				ys[s] += xs[s*inputs+i] * xs[s*inputs+i] / float64(inputs)
			}
		}
		for _, hidden := range []int{2, 16, 33, 51, 80} {
			cfg := Config{Inputs: inputs, Hidden: hidden, LearningRate: 0.1, Epochs: 10, Seed: int64(7*hidden + inputs)}
			// The loss ten epochs reach is a target forty epochs stop early at.
			reached := newReference(cfg).train(cfg, xs, ys)
			cfg.Epochs = 40
			for _, target := range []float64{0, reached} {
				cfg.TargetLoss = target
				ref, net := newReference(cfg), New(cfg)
				wantMSE, gotMSE := ref.train(cfg, xs, ys), net.Train(cfg, xs, ys)
				if math.Float64bits(gotMSE) != math.Float64bits(wantMSE) {
					t.Errorf("%+v: Train returned MSE %v, reference %v", cfg, gotMSE, wantMSE)
				}
				if target > 0 && gotMSE > target {
					t.Errorf("%+v: MSE %v, the run did not stop early", cfg, gotMSE)
				}
				if math.Float64bits(net.b2) != math.Float64bits(ref.b2) {
					t.Errorf("%+v: output bias %v, reference %v", cfg, net.b2, ref.b2)
				}
				for j, u := range net.units {
					want := unit{wx: ref.w1[j*inputs], b: ref.b1[j], w2: ref.w2[j]}
					if inputs == 2 {
						want.wy = ref.w1[j*inputs+1]
					}
					if u != want {
						t.Fatalf("%+v: hidden unit %d = %+v, reference %+v", cfg, j, u, want)
					}
				}
			}
		}
	}
}

// benchmarkTrain trains one model of the given shape on m random samples for
// 10 epochs per iteration: the two shapes below are the leaf and the root of
// a benchmark-scale RSMI, which between them are the build.
func benchmarkTrain(b *testing.B, m, hidden int) {
	xs := make([]float64, 2*m)
	ys := make([]float64, m)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < m; i++ {
		xs[2*i], xs[2*i+1] = rng.Float64(), rng.Float64()
		ys[i] = rng.Float64()
	}
	cfg := Config{Inputs: 2, Hidden: hidden, LearningRate: 0.01, Epochs: 10, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		n.Train(cfg, xs, ys)
	}
}

// BenchmarkTrainLeaf: a full leaf (N = 10 000 points in 100 blocks, so 51
// hidden units by the paper's rule).
func BenchmarkTrainLeaf(b *testing.B) { benchmarkTrain(b, 10_000, 51) }

// BenchmarkTrainRoot: a 100k-point shard's root model (64 cells, 33 units).
func BenchmarkTrainRoot(b *testing.B) { benchmarkTrain(b, 100_000, 33) }
