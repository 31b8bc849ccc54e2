// Package mlp implements the multilayer perceptron used as the learned
// "model" in both RSMI and the ZM baseline, replacing the paper's PyTorch
// dependency with a from-scratch, stdlib-only implementation.
//
// The network shape follows §6.1 exactly: an input layer (1 or 2 neurons), a
// single hidden layer with sigmoid activation, and a single linear output
// neuron. Training minimises the L2 loss (Eq. 3) with stochastic gradient
// descent at a configurable learning rate and epoch count (the paper uses
// lr = 0.01 and 500 epochs; the experiment harness defaults lower so sweeps
// finish quickly, and restores the paper's values via flags).
//
// Inputs and targets are expected to be normalised to the unit range by the
// caller ("the point coordinates and block IDs are normalized into the unit
// range", §6.1).
//
// A Network is what training works on, kept in the form inference uses: one
// unit per hidden neuron, and one sigmoid for the whole package — a 4 096-piece
// interpolated table within 1e-6 of 1/(1+e^-x) (tableSigmoid), where the paper
// has PyTorch's. An index that has finished training a two-input Network
// compiles it (Compile) into a Kernel — the same units rescaled to fold in
// normalisation, class scaling and the table's coordinates — keeps the Kernel
// and drops the Network; see Kernel for why that is exact.
package mlp

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes a network and its training procedure.
type Config struct {
	// Inputs is the number of input neurons (2 for RSMI coordinate models,
	// 1 for ZM curve-value models).
	Inputs int
	// Hidden is the hidden layer width. The paper sizes it as
	// (inputs + output classes) / 2, e.g. 51 for RSMI leaf models with two
	// inputs and 100 block IDs. HiddenFor computes that rule.
	Hidden int
	// LearningRate is the SGD step size. Zero selects 0.01 (paper default).
	LearningRate float64
	// Epochs is the number of passes over the training set. Zero selects
	// 500 (paper default).
	Epochs int
	// TargetLoss optionally stops training early once the epoch MSE drops
	// to or below this value. Zero disables early stopping.
	TargetLoss float64
	// Seed seeds weight initialisation and epoch shuffling, making training
	// fully deterministic.
	Seed int64
}

// DefaultLearningRate and DefaultEpochs are the paper's training settings.
const (
	DefaultLearningRate = 0.01
	DefaultEpochs       = 500
)

// HiddenFor implements the paper's hidden-layer sizing rule: the number of
// input attributes plus the number of output classes, divided by two (§6.1).
func HiddenFor(inputs, outputClasses int) int {
	h := (inputs + outputClasses) / 2
	if h < 2 {
		h = 2
	}
	return h
}

// Network is a feedforward neural network with one sigmoid hidden layer and
// one linear output. Predict is safe for concurrent use once training has
// finished; Train mutates the weights and must not run concurrently with
// anything else.
type Network struct {
	inputs int
	// units holds the hidden neurons, each one's input weights, bias and
	// output weight adjacent, over inputs and outputs in the unit range. A
	// one-input network is a two-input one whose wy is 0, fed y = 0: wy's
	// gradient is then 0 too, so it stays there.
	units []unit
	b2    float64 // the output bias
}

// New creates a network with Xavier-style uniform weight initialisation.
func New(cfg Config) *Network {
	if cfg.Inputs != 1 && cfg.Inputs != 2 {
		panic(fmt.Sprintf("mlp: invalid input count %d (the paper's models take 1 or 2)", cfg.Inputs))
	}
	if cfg.Hidden <= 0 {
		panic(fmt.Sprintf("mlp: invalid hidden count %d", cfg.Hidden))
	}
	n := &Network{inputs: cfg.Inputs, units: make([]unit, cfg.Hidden)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lim1 := 1 / math.Sqrt(float64(cfg.Inputs))
	for j := range n.units {
		n.units[j].wx = rng.Float64()*2*lim1 - lim1
		if cfg.Inputs == 2 {
			n.units[j].wy = rng.Float64()*2*lim1 - lim1
		}
	}
	lim2 := 1 / math.Sqrt(float64(cfg.Hidden))
	for j := range n.units {
		n.units[j].w2 = rng.Float64()*2*lim2 - lim2
	}
	return n
}

// Inputs returns the input dimensionality.
func (n *Network) Inputs() int { return n.inputs }

// Hidden returns the hidden layer width.
func (n *Network) Hidden() int { return len(n.units) }

// SizeBytes returns the storage footprint of the parameters, used by the
// index-size experiments (Figs. 7 and 9): per hidden neuron one weight per
// input, a bias and an output weight, plus the output bias.
func (n *Network) SizeBytes() int64 {
	return int64(len(n.units)*(n.inputs+2)+1) * 8
}

// sample returns sample s of the row-major inputs xs as the (x, y) pair the
// units take.
func (n *Network) sample(xs []float64, s int) (x, y float64) {
	if n.inputs == 1 {
		return xs[s], 0
	}
	return xs[2*s], xs[2*s+1]
}

// packedSample is one training sample as a step reads it.
type packedSample struct{ x, y, target float64 }

// activation is the neuron's output for unit-range inputs: the table sigmoid
// of b + wx·x + wy·y. Products are rounded before they are added, as in
// Kernel.value, so a forward pass is the same sum on every GOARCH.
func (u *unit) activation(x, y float64) float64 {
	s := u.b + float64(u.wx*x) + float64(u.wy*y)
	return tableSigmoid((s + tableSpan) * tableScale)
}

// Predict runs a forward pass. len(x) must equal Inputs(). It is safe for
// concurrent use.
//
//rsmi:noalloc
func (n *Network) Predict(x []float64) float64 {
	if len(x) != n.inputs {
		panic(fmt.Sprintf("mlp: predict with %d inputs, want %d", len(x), n.inputs))
	}
	x0, y0 := n.sample(x, 0)
	out := n.b2
	for j := range n.units {
		u := &n.units[j]
		out += float64(u.w2 * u.activation(x0, y0))
	}
	return out
}

// Train fits the network to the samples with per-sample SGD on the L2 loss.
// xs is row-major with len(xs) = len(ys)*Inputs(). It returns the final
// epoch's mean squared error. xs and ys are not modified.
//
// Train packs each sample once as (x, y, target) and applies every epoch's
// shuffle swaps to the packed copy itself. The same swaps on an index slice
// would leave packed sample i equal to sample order[i], so each step sees
// the sample it would through an index, with the same arithmetic, and the
// epoch reads its samples in sequence rather than all over a training set
// that may not fit in cache.
func (n *Network) Train(cfg Config, xs []float64, ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	if len(xs) != len(ys)*n.inputs {
		panic(fmt.Sprintf("mlp: train with %d inputs for %d targets (want %d)",
			len(xs), len(ys), len(ys)*n.inputs))
	}
	lr := cfg.LearningRate
	if lr == 0 {
		lr = DefaultLearningRate
	}
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = DefaultEpochs
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	samples := make([]packedSample, len(ys))
	for s := range samples {
		x, y := n.sample(xs, s)
		samples[s] = packedSample{x, y, ys[s]}
	}
	units := n.units
	h := make([]float64, len(units)) // the current sample's activations
	var mse float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		var sse float64
		for i := range samples {
			x, y := samples[i].x, samples[i].y
			out := n.b2
			for j := range units {
				u := &units[j]
				h[j] = u.activation(x, y)
				out += float64(u.w2 * h[j])
			}
			err := out - samples[i].target
			sse += float64(err * err)

			// One visit per neuron moves all four of its parameters; the
			// hidden gradient reads w2 before w2 moves.
			step := float64(lr * err)
			for j := range units {
				u, hj := &units[j], h[j]
				dh := float64(float64(float64(err*u.w2)*hj) * (1 - hj))
				g := float64(lr * dh)
				u.w2 -= float64(step * hj)
				u.wx -= float64(g * x)
				u.wy -= float64(g * y)
				u.b -= g
			}
			n.b2 -= step
		}
		mse = sse / float64(len(ys))
		if cfg.TargetLoss > 0 && mse <= cfg.TargetLoss {
			break
		}
	}
	return mse
}

// Loss returns the mean squared error of the network on the samples.
func (n *Network) Loss(xs []float64, ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	var sse float64
	for s := range ys {
		d := n.Predict(xs[s*n.inputs:(s+1)*n.inputs]) - ys[s]
		sse += d * d
	}
	return sse / float64(len(ys))
}
