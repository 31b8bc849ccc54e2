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
	for _, cfg := range []Config{{Inputs: 0, Hidden: 4}, {Inputs: 2, Hidden: 0}} {
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
	n := New(Config{Inputs: 2, Hidden: 51, Seed: 0})
	// w1: 51*2, b1: 51, w2: 51, b2: 1 -> 205 params * 8 bytes.
	if got := n.SizeBytes(); got != 205*8 {
		t.Errorf("SizeBytes = %d, want %d", got, 205*8)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Errorf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Errorf("sigmoid(-100) = %v", s)
	}
}

func BenchmarkPredictTwoInput(b *testing.B) {
	n := New(Config{Inputs: 2, Hidden: 51, Seed: 1})
	x := []float64{0.4, 0.6}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += n.Predict(x)
	}
	_ = sink
}

func BenchmarkTrainEpoch(b *testing.B) {
	const m = 1000
	xs := make([]float64, 2*m)
	ys := make([]float64, m)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < m; i++ {
		xs[2*i], xs[2*i+1] = rng.Float64(), rng.Float64()
		ys[i] = rng.Float64()
	}
	cfg := Config{Inputs: 2, Hidden: 51, LearningRate: 0.01, Epochs: 1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		n.Train(cfg, xs, ys)
	}
}
