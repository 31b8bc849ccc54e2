package cdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteTo serialises the PMF's knots and cumulative fractions. It
// implements io.WriterTo.
func (f *PMF) WriteTo(w io.Writer) (int64, error) {
	var written int64
	if err := binary.Write(w, binary.LittleEndian, int32(len(f.knots))); err != nil {
		return written, fmt.Errorf("cdf: write header: %w", err)
	}
	written += 4
	for _, s := range [][]float64{f.knots, f.cum} {
		if err := binary.Write(w, binary.LittleEndian, s); err != nil {
			return written, fmt.Errorf("cdf: write knots: %w", err)
		}
		written += int64(8 * len(s))
	}
	return written, nil
}

// ReadPMF deserialises a PMF written by WriteTo.
func ReadPMF(r io.Reader) (*PMF, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("cdf: read header: %w", err)
	}
	const maxKnots = 1 << 24
	if n < 2 || n > maxKnots {
		return nil, fmt.Errorf("cdf: implausible knot count %d", n)
	}
	// Both arrays grow a chunk at a time as the stream delivers them, so a
	// header that lies about n costs no more than the bytes behind it.
	f := &PMF{}
	for _, dst := range []*[]float64{&f.knots, &f.cum} {
		var chunk [512]float64
		for left := int(n); left > 0; left -= len(chunk) {
			part := chunk[:min(left, len(chunk))]
			if err := binary.Read(r, binary.LittleEndian, part); err != nil {
				return nil, fmt.Errorf("cdf: read knots: %w", err)
			}
			*dst = append(*dst, part...)
		}
	}
	// Eval searches the knots and interpolates the fractions: a NaN or
	// infinite knot, or a fraction outside [0, 1], breaks both.
	for i := 0; i < int(n); i++ {
		if math.IsNaN(f.knots[i]) || math.IsInf(f.knots[i], 0) || !(f.cum[i] >= 0 && f.cum[i] <= 1) {
			return nil, fmt.Errorf("cdf: knot %d (%v, %v) is not a finite coordinate with a fraction in [0, 1]", i, f.knots[i], f.cum[i])
		}
		if i > 0 && (f.knots[i] < f.knots[i-1] || f.cum[i] < f.cum[i-1]) {
			return nil, fmt.Errorf("cdf: non-monotone data at knot %d", i)
		}
	}
	return f, nil
}
