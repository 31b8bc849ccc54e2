package server

import (
	"math"
	"sync"
	"testing"
	"time"
)

// snapshot is h's state alone, for tests that read one histogram.
func snapshot(h *histogram) *histSnapshot {
	var s histSnapshot
	h.snapshotInto(&s)
	return &s
}

// TestQuantileTornObserve is the regression test for the observe/quantile
// race: count used to be incremented before the bucket, so a concurrent
// quantile could load a count its bucket scan cannot account for, run off
// the end of the buckets, and report the ~2^30 µs (≈18 min) top of range
// as p50/p95/p99. This reproduces the torn state deterministically: on
// the old code the quantile comes back ≈18 minutes, on the fixed code it
// clamps to the last non-empty bucket (≈100 µs here).
func TestQuantileTornObserve(t *testing.T) {
	var h histogram
	for i := 0; i < 10; i++ {
		h.observe(100 * time.Microsecond)
	}
	// A concurrent observe caught between its count and bucket updates:
	// count says 11 samples, the buckets hold 10.
	h.count.Add(1)
	for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
		got := snapshot(&h).quantile(q)
		if got > time.Millisecond {
			t.Fatalf("quantile(%v) = %v with a torn observe in flight; want ≈100µs, not the top-of-range fallback", q, got)
		}
		if got == 0 {
			t.Fatalf("quantile(%v) = 0 with 10 recorded samples", q)
		}
	}
	// mergedStats runs the same clamped quantile code for every percentile,
	// p999 included.
	if st := mergedStats(&h); st.P999us > 1000 || st.P999us == 0 {
		t.Fatalf("P999us = %v with a torn observe in flight", st.P999us)
	}
	// A torn observe on an otherwise empty histogram must read as "no
	// data", not as an 18-minute latency.
	var empty histogram
	empty.count.Add(1)
	for _, q := range []float64{0.99, 0.999} {
		if got := snapshot(&empty).quantile(q); got != 0 {
			t.Fatalf("quantile(%v) on empty buckets with torn count = %v, want 0", q, got)
		}
	}
}

// TestObserveAllocs pins observe at zero allocations: it runs on every
// request for every op and transport, so a stray allocation here taxes
// the whole serving tier.
func TestObserveAllocs(t *testing.T) {
	var h histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.observe(100 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("observe allocates %.1f times per sample, want 0", allocs)
	}
}

// TestQuantileConcurrent hammers observe and quantile from concurrent
// goroutines (run under -race in CI): every estimate must stay within the
// range of values actually observed, whatever interleaving happens.
func TestQuantileConcurrent(t *testing.T) {
	var h histogram
	const (
		writers = 4
		perG    = 5000
		maxObs  = 800 * time.Microsecond
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perG; i++ {
				h.observe(time.Duration(50+(i+w*137)%750) * time.Microsecond)
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
				got := snapshot(&h).quantile(q)
				// The histogram is quarter-octave; allow one bucket (~19%)
				// of estimator slack above the largest observed value.
				if got > maxObs+maxObs/4 {
					t.Errorf("quantile(%v) = %v exceeds max observed %v", q, got, maxObs)
					return
				}
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := snapshot(&h).quantile(0.99); got == 0 || got > maxObs+maxObs/4 {
		t.Fatalf("final p99 = %v out of range", got)
	}
}

// TestStatsExactMeanAndP999 pins the stats contract: the mean comes
// from the exact running sum (not bucket midpoints), and p999 resolves
// a tail a coarser percentile misses.
func TestStatsExactMeanAndP999(t *testing.T) {
	var h histogram
	// 998 fast samples and two 8ms outliers: p99 stays in the fast band,
	// p999 (rank ceil(0.999·1000) = 999) must surface the outlier bucket.
	for i := 0; i < 998; i++ {
		h.observe(100 * time.Microsecond)
	}
	h.observe(8 * time.Millisecond)
	h.observe(8 * time.Millisecond)
	st := mergedStats(&h)
	wantMean := (998*100.0 + 2*8000.0) / 1000.0
	if math.Abs(st.MeanUs-wantMean) > 1e-9 {
		t.Fatalf("MeanUs = %v, want exact %v", st.MeanUs, wantMean)
	}
	if st.P99us > 200 {
		t.Fatalf("P99us = %v, want the fast band", st.P99us)
	}
	// Quarter-octave estimate of 8ms is within ~19%.
	if st.P999us < 6000 || st.P999us > 10000 {
		t.Fatalf("P999us = %v, want ≈8000 (the outlier)", st.P999us)
	}
}

// TestMergedStats checks that per-transport histograms of one op merge
// into a single consistent summary.
func TestMergedStats(t *testing.T) {
	var a, b histogram
	for i := 0; i < 10; i++ {
		a.observe(100 * time.Microsecond)
		b.observe(400 * time.Microsecond)
	}
	st := mergedStats(&a, &b)
	if st.Count != 20 {
		t.Fatalf("merged count = %d, want 20", st.Count)
	}
	if math.Abs(st.MeanUs-250) > 1e-9 {
		t.Fatalf("merged MeanUs = %v, want exact 250", st.MeanUs)
	}
	// The median of {10×100µs, 10×400µs} sits in the 100µs bucket
	// (rank 10 of 20); p95 must sit in the 400µs bucket.
	if st.P50us > 150 {
		t.Fatalf("merged P50us = %v, want ≈100", st.P50us)
	}
	if st.P95us < 300 {
		t.Fatalf("merged P95us = %v, want ≈400", st.P95us)
	}
}
