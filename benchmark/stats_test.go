package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		ns   []int64
		q    float64
		want int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.5, 7},
		{[]int64{4, 1, 3, 2}, 0.5, 2},
		{[]int64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.99, 100},
		{[]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 90},
		{[]int64{3, 1, 2}, 1, 3},
	} {
		if got := quantile(append([]int64(nil), tc.ns...), tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %d, want %d", tc.ns, tc.q, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5}} {
		in := append([]float64(nil), tc.vs...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vs, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.vs[i] {
				t.Errorf("median reordered its input: %v", in)
			}
		}
	}
}

// One slow round among five must not move the run's value, and a round
// without a sample of the class must not count as a zero.
func TestMedianOfRounds(t *testing.T) {
	var rs rounds
	for _, p50 := range []float64{1000, 1010, 990, 9000, 1005} {
		var r round
		r.add(cPoint, []int64{int64(p50)}, 1, 0)
		rs = append(rs, r)
	}
	rs = append(rs, round{}) // a round that played no point operation
	if got := rs.p50us(cPoint); got != 1.005 {
		t.Errorf("point p50 = %v us, want 1.005", got)
	}
	if got := rs.p50us(cKNN); got != 0 {
		t.Errorf("a class without samples reports %v, want 0", got)
	}
}

// A stall that lands in a few slices must not move the typical gap, and the
// run's ops/s is the median across rounds.
func TestTypicalGap(t *testing.T) {
	// 10,000 requests 1 µs apart: ten slices of a millisecond. A 3 ms stall
	// after request 2,500 stretches one slice only.
	ends := make([]int64, 10_000)
	var now int64
	for i := range ends {
		now += 1000
		if i == 2500 {
			now += 3_000_000
		}
		ends[i] = now
	}
	if got := typicalGap(ends); got != 1000 {
		t.Errorf("typical gap = %v ns, want 1000", got)
	}
	if got := typicalGap(ends[:3]); got != 1000 {
		t.Errorf("typical gap of a pass shorter than a slice = %v ns, want 1000", got)
	}
	if got := typicalGap(nil); got != 0 {
		t.Errorf("typical gap of no requests = %v, want 0", got)
	}
	var fast, slow round
	fast.add(cWindow, []int64{1000, 3000}, 2, 2e-6)
	slow.add(cWindow, []int64{1000, 3000}, 2, 4e-6)
	if got := (rounds{slow, fast, fast}).opsPerSec(); got != 1e6 {
		t.Errorf("ops/s = %v, want 1e6", got)
	}
}

// A burst records one positive sample per call, the run's reference is their
// median, and a nil reference is inert.
func TestReference(t *testing.T) {
	r := newReference()
	for i := 0; i < 3; i++ {
		r.burst()
	}
	if len(r.samples) != 3 || r.ns() <= 0 {
		t.Errorf("3 bursts left samples %v, reference %v", r.samples, r.ns())
	}
	var none *reference
	none.burst()
}
