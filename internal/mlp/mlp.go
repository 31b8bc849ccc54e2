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
// A Network is what training works on. An index that has finished training a
// two-input Network compiles it (Compile) into a Kernel — normalisation,
// class scaling and a table sigmoid folded into one pass over one slice —
// keeps the Kernel and drops the Network; see Kernel for why that is exact.
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
	inputs, hidden int
	// w1 is row-major [hidden][inputs]; b1 has one bias per hidden neuron.
	w1, b1 []float64
	// w2 connects hidden to the single output; b2 is the output bias.
	w2 []float64
	b2 float64
}

// scratchSize covers the common hidden widths (the paper's rule yields ≤ 51
// for B = 100) so Predict runs without heap allocation.
const scratchSize = 64

// New creates a network with Xavier-style uniform weight initialisation.
func New(cfg Config) *Network {
	if cfg.Inputs <= 0 {
		panic(fmt.Sprintf("mlp: invalid input count %d", cfg.Inputs))
	}
	if cfg.Hidden <= 0 {
		panic(fmt.Sprintf("mlp: invalid hidden count %d", cfg.Hidden))
	}
	n := &Network{
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

// Inputs returns the input dimensionality.
func (n *Network) Inputs() int { return n.inputs }

// Hidden returns the hidden layer width.
func (n *Network) Hidden() int { return n.hidden }

// SizeBytes returns the storage footprint of the parameters, used by the
// index-size experiments (Figs. 7 and 9).
func (n *Network) SizeBytes() int64 {
	return int64(len(n.w1)+len(n.b1)+len(n.w2)+1) * 8
}

// Predict runs a forward pass. len(x) must equal Inputs(). It is safe for
// concurrent use.
func (n *Network) Predict(x []float64) float64 {
	var buf [scratchSize]float64
	var h []float64
	if n.hidden <= scratchSize {
		h = buf[:n.hidden]
	} else {
		h = make([]float64, n.hidden)
	}
	return n.predictInto(x, h)
}

// predictInto runs a forward pass, storing hidden activations in h (length
// Hidden()), which the training backward pass reuses.
func (n *Network) predictInto(x []float64, h []float64) float64 {
	if len(x) != n.inputs {
		panic(fmt.Sprintf("mlp: predict with %d inputs, want %d", len(x), n.inputs))
	}
	out := n.b2
	for j := 0; j < n.hidden; j++ {
		s := n.b1[j]
		row := n.w1[j*n.inputs : (j+1)*n.inputs]
		for i, xi := range x {
			s += row[i] * xi
		}
		hj := sigmoid(s)
		h[j] = hj
		out += n.w2[j] * hj
	}
	return out
}

// Train fits the network to the samples with per-sample SGD on the L2 loss.
// xs is row-major with len(xs) = len(ys)*Inputs(). It returns the final
// epoch's mean squared error.
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
			pred := n.predictInto(x, h)
			err := pred - ys[s]
			sse += err * err

			// Output layer gradients; h holds the activations from the
			// forward pass.
			for j := 0; j < n.hidden; j++ {
				hj := h[j]
				dh[j] = err * n.w2[j] * hj * (1 - hj)
				n.w2[j] -= lr * err * hj
			}
			n.b2 -= lr * err
			// Hidden layer gradients.
			for j := 0; j < n.hidden; j++ {
				row := n.w1[j*n.inputs : (j+1)*n.inputs]
				for i, xi := range x {
					row[i] -= lr * dh[j] * xi
				}
				n.b1[j] -= lr * dh[j]
			}
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

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
