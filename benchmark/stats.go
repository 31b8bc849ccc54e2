package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of ns (0 < q <= 1); it sorts
// ns in place. An empty sample has no quantile: it returns 0, and callers
// report that class as having no samples.
func quantile(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return ns[i]
}

// median returns the median of vs (the mean of the middle two for an even
// count) without reordering vs; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// timings are the buffers a pass fills, one entry per request: how long the
// request took, and when the client that sent it had its answer and had
// checked it, both in nanoseconds, the second counted from the start of the
// pass. ref, when set, is timed between the passes.
type timings struct {
	lats, ends []int64
	ref        *reference
}

func newTimings(n int) *timings { return &timings{lats: make([]int64, n), ends: make([]int64, n)} }

// sliceNS is the length typicalGap aims at for a slice.
const sliceNS = 1_000_000

// typicalGap returns how long one request of a client's pass took, in
// nanoseconds of wall time, as the pass's typical millisecond had it. ends
// are the completion times of the client's consecutive requests, so their
// differences hold the request, the answer check after it and anything that
// kept the client from running. They are cut into slices of about sliceNS,
// and the answer is the median slice's duration ÷ its requests. On this
// host's bad minutes the hypervisor takes the vCPU away for 1-3 ms about
// every 10 ms: that lands in some slices and leaves the median alone, where
// it stretches the wall time of a whole pass by a quarter to a half.
func typicalGap(ends []int64) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	per := int(sliceNS * int64(n) / max(ends[n-1], 1))
	per = max(1, min(per, n))
	slices := make([]float64, 0, n/per)
	var prev int64
	for i := per - 1; i < n; i += per {
		slices = append(slices, float64(ends[i]-prev))
		prev = ends[i]
	}
	return median(slices) / float64(per)
}

// round is what one timed round measured: per class the p50 and p99 of its
// requests in nanoseconds and how many there were, plus the operations
// completed and the seconds they took.
type round struct {
	p50, p99 [numClasses]float64
	samples  [numClasses]int
	ops      int
	secs     float64
}

// rounds is every timed round of a run, in order.
type rounds []round

// medianOf is the run's value for one cell: the median across rounds of the
// round's own statistic. A round during which the host stole the CPU moves
// one element of that list, not the result. Rounds without a sample of the
// class are left out.
func (rs rounds) medianOf(c class, get func(r *round) float64) float64 {
	var vs []float64
	for i := range rs {
		if rs[i].samples[c] > 0 {
			vs = append(vs, get(&rs[i]))
		}
	}
	return median(vs)
}

func (rs rounds) p50us(c class) float64 {
	return rs.medianOf(c, func(r *round) float64 { return r.p50[c] }) / 1e3
}

func (rs rounds) p99us(c class) float64 {
	return rs.medianOf(c, func(r *round) float64 { return r.p99[c] }) / 1e3
}

// opsPerSec is the median across rounds of operations ÷ seconds.
func (rs rounds) opsPerSec() float64 {
	vs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.secs > 0 {
			vs = append(vs, float64(r.ops)/r.secs)
		}
	}
	return median(vs)
}

func (rs rounds) samples() int {
	n := 0
	for _, r := range rs {
		for _, s := range r.samples {
			n += s
		}
	}
	return n
}
