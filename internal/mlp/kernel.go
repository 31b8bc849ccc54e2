package mlp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The sigmoid, of training and inference alike, is read from a table:
// tableSteps linear pieces over [-tableSpan, tableSpan], saturating outside. The step
// is a power of two, so a pre-activation is turned into a table coordinate
// (and a coordinate into an index and a fraction) without rounding.
const (
	tableSpan  = 16
	tableSteps = 4096 // a power of two: masking an index proves it in range
	tableScale = tableSteps / (2 * tableSpan)
)

// sigmoidTableError bounds |table sigmoid − 1/(1+e^-x)| for every x: the
// interpolation error of a piece is at most step²/8 · max|σ″| = 7.4e-7, and
// saturating beyond ±16 costs at most σ(-16) = 1.2e-7. The kernel tests pin
// it.
const sigmoidTableError = 1e-6

// sigmoidTable[i] is the sigmoid at table coordinate i, i.e. at
// x = i/tableScale − tableSpan.
var sigmoidTable [tableSteps + 1]float64

func init() {
	for i := range sigmoidTable {
		sigmoidTable[i] = 1 / (1 + tableExp(tableSpan-float64(i)/tableScale))
	}
}

// tableExp returns e^y for |y| ≤ tableSpan to a relative error near 1e-13,
// from individually rounded +, × and ÷ alone: a degree-8 Taylor polynomial
// at y/1024 (an exact scaling), squared ten times. math.Exp is not used
// because its last bit is not the same on every GOARCH (assembly on some,
// FMA-fused polynomials on others), and the table is part of what a snapshot
// means — see Kernel.
func tableExp(y float64) float64 {
	z := y / 1024
	e := 1.0
	for k := 8.0; k >= 1; k-- {
		e = 1 + float64(z*e)/k
	}
	for i := 0; i < 10; i++ {
		e = float64(e * e)
	}
	return e
}

// tableSigmoid returns the table's sigmoid at table coordinate t (the
// pre-activation x sits at t = (x + tableSpan)·tableScale). It is total:
// NaN, −Inf and everything below the table read its first entry, +Inf and
// everything above read its last, and no input indexes outside it.
func tableSigmoid(t float64) float64 {
	if !(t > 0) {
		return sigmoidTable[0]
	}
	if t >= tableSteps {
		return sigmoidTable[tableSteps]
	}
	i := int(t) & (tableSteps - 1)
	lo, hi := sigmoidTable[i], sigmoidTable[i+1]
	return lo + float64((t-float64(i))*(hi-lo))
}

// unit is one hidden neuron, its four parameters adjacent: input weights,
// bias and output weight. In a Kernel the pre-activation b + wx·x + wy·y is
// in table coordinates of raw (not normalised) inputs and w2 is in classes;
// in a Network both are over the unit range (see Network).
type unit struct {
	wx, wy, b, w2 float64
}

// Kernel is the inference form of a trained two-input Network: what an index
// keeps of a sub-model once training is over. Compile folds everything that
// is constant per sub-model into the parameters — the normalisation of the
// inputs to the training rectangle, the sigmoid table's scale and offset,
// the scaling of the output to a class count — so Predict is one pass over
// one slice with a table read per hidden unit and no division.
//
// A Kernel is not an approximation the index has to compensate for: it is
// the index's predictor. Groupings and error bounds are measured from
// Predict at build time and queries, inserts and deletes call the same
// Predict, so how closely it tracks the Network it came from affects only
// how tight the bounds are, never whether an answer is right. What that
// argument needs is that Predict is the same function wherever it runs,
// including on the machine that loads a snapshot built elsewhere. It is:
// every product below is written as an explicit float64(a*b) conversion,
// which the Go spec says rounds the product and so forbids fusing it into a
// multiply-add on any GOARCH; additions are evaluated in source order; and
// the table is built from individually rounded operations (tableExp), not
// from math.Exp.
//
// The zero Kernel has no hidden units and predicts class 0 of 1; it stands
// for "no model" (a leaf with a single block). Predict is safe for
// concurrent use.
type Kernel struct {
	units []unit
	bias  float64 // output bias, in classes
	last  int     // highest class: Predict returns a value in [0, last]
}

// Compile returns the inference kernel of net — a two-input network trained
// on inputs normalised to the rectangle [minX, maxX] × [minY, maxY] and on
// targets class/(classes−1) — for raw inputs and whole classes. A dimension
// of zero (or negative, or overflowing) extent is the constant 0.5 to the
// network, as it was when the training set was normalised: its weight folds
// into the bias. Every parameter of the result is finite, so the kernel
// codec accepts whatever Compile produces.
func Compile(net *Network, minX, minY, maxX, maxY float64, classes int) Kernel {
	if net.inputs != 2 {
		panic(fmt.Sprintf("mlp: compile a %d-input network, want 2", net.inputs))
	}
	if classes < 1 {
		panic(fmt.Sprintf("mlp: compile for %d classes", classes))
	}
	scale := float64(classes - 1)
	k := Kernel{
		units: make([]unit, len(net.units)),
		bias:  finite(net.b2 * scale),
		last:  classes - 1,
	}
	for j, u := range net.units {
		ax, cx := foldAxis(u.wx, minX, maxX)
		ay, cy := foldAxis(u.wy, minY, maxY)
		k.units[j] = unit{
			wx: finite(ax * tableScale),
			wy: finite(ay * tableScale),
			b:  finite((u.b + cx + cy + tableSpan) * tableScale),
			w2: finite(u.w2 * scale),
		}
	}
	return k
}

// foldAxis rewrites w·(x − lo)/(hi − lo), one input's normalised
// contribution to a pre-activation, as a·x + c. Without a usable extent the
// normalised input is the constant 0.5.
func foldAxis(w, lo, hi float64) (a, c float64) {
	if span := hi - lo; span > 0 {
		a = w / span
		c = -a * lo
		if isFinite(a) && isFinite(c) {
			return a, c
		}
	}
	return 0, 0.5 * w
}

// finite returns v, or 0 when v is NaN or infinite (a diverged training run,
// an overflowing fold): Predict is total either way, but only finite
// parameters survive the codec.
func finite(v float64) float64 {
	if !isFinite(v) {
		return 0
	}
	return v
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Classes returns the number of classes Predict chooses among.
func (k *Kernel) Classes() int { return k.last + 1 }

// SizeBytes returns the storage footprint of the kernel: its encoded size,
// four parameters per hidden unit plus the output bias and the shape. The
// sigmoid table is a constant of the program, shared by every kernel of
// every index, and is not counted.
func (k *Kernel) SizeBytes() int64 {
	return kernelHeaderBytes + int64(len(k.units))*unitBytes
}

// value is the kernel's real-valued output in classes, before rounding.
func (k *Kernel) value(x, y float64) float64 {
	v := k.bias
	for i := range k.units {
		u := &k.units[i]
		t := u.b + float64(u.wx*x) + float64(u.wy*y)
		v += float64(u.w2 * tableSigmoid(t))
	}
	return v
}

// Predict returns the class of the point (x, y): the kernel's output rounded
// to the nearest class and clamped to [0, Classes()−1]. It is a total
// function — NaN and infinite inputs (or outputs) yield a class in range —
// and the same function on every machine; see Kernel.
//
//rsmi:noalloc
func (k *Kernel) Predict(x, y float64) int {
	v := k.value(x, y)
	if !(v > 0) {
		return 0
	}
	if v >= float64(k.last) {
		return k.last
	}
	return int(v + 0.5)
}

// Kernel wire format, little-endian: classes int32, hidden int32, the
// output bias, then four float64 per hidden unit (wx, wy, b, w2).
const (
	kernelHeaderBytes = 4 + 4 + 8
	unitBytes         = 4 * 8
	// maxKernelDim caps the class count and the hidden width a decoder
	// accepts (the paper's sizing rule gives 51 hidden units for 100 classes).
	maxKernelDim = 1 << 20
)

// WriteTo serialises the kernel. It implements io.WriterTo.
func (k *Kernel) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, k.SizeBytes())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k.Classes()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.units)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(k.bias))
	for _, u := range k.units {
		for _, f := range [4]float64{u.wx, u.wy, u.b, u.w2} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	n, err := w.Write(buf)
	if err != nil {
		return int64(n), fmt.Errorf("mlp: write kernel: %w", err)
	}
	return int64(n), nil
}

// ReadKernel deserialises a kernel written by WriteTo. The bytes are not
// trusted (replicas load snapshots off the wire): the shape is capped, every
// parameter must be finite, and the units are read a small chunk at a time
// into a slice that grows as bytes arrive, so a header that promises a
// million units over an empty body costs one chunk, not 32 MB. A kernel it
// returns is exactly the predictor that was written.
func ReadKernel(r io.Reader) (Kernel, error) {
	var head [kernelHeaderBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Kernel{}, fmt.Errorf("mlp: read kernel header: %w", err)
	}
	classes := int32(binary.LittleEndian.Uint32(head[0:]))
	hidden := int32(binary.LittleEndian.Uint32(head[4:]))
	bias := math.Float64frombits(binary.LittleEndian.Uint64(head[8:]))
	if classes < 1 || classes > maxKernelDim || hidden < 0 || hidden > maxKernelDim {
		return Kernel{}, fmt.Errorf("mlp: implausible kernel shape: %d classes, %d hidden units", classes, hidden)
	}
	if !isFinite(bias) {
		return Kernel{}, fmt.Errorf("mlp: kernel output bias %v is not finite", bias)
	}
	k := Kernel{bias: bias, last: int(classes) - 1}
	const chunkUnits = 128
	var chunk [chunkUnits * unitBytes]byte
	for left := int(hidden); left > 0; {
		n := min(left, chunkUnits)
		if _, err := io.ReadFull(r, chunk[:n*unitBytes]); err != nil {
			return Kernel{}, fmt.Errorf("mlp: read kernel units: %w", err)
		}
		for b := chunk[:n*unitBytes]; len(b) > 0; b = b[unitBytes:] {
			var p [4]float64
			for i := range p {
				p[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
				if !isFinite(p[i]) {
					return Kernel{}, fmt.Errorf("mlp: kernel parameter %v of unit %d is not finite", p[i], len(k.units))
				}
			}
			k.units = append(k.units, unit{wx: p[0], wy: p[1], b: p[2], w2: p[3]})
		}
		left -= n
	}
	return k, nil
}
