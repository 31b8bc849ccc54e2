package server

import (
	"math"
	"sync/atomic"
	"time"

	"rsmi/internal/wire"
)

// histogram is a lock-free latency histogram with quarter-octave buckets:
// bucket i covers [2^(i/4), 2^((i+1)/4)) microseconds, so quantile
// estimates are within ~9% of the true value — plenty for p50/p95/p99
// serving reports — while Observe stays a single atomic increment on the
// hot path and the whole structure is a fixed ~1 KiB per op type.
type histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histBuckets spans 1 µs … ~2^30 µs (≈ 18 minutes) at 4 buckets/octave;
// anything slower clamps into the last bucket.
const histBuckets = 30 * 4

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := float64(d.Nanoseconds()) / 1e3
	if us < 1 {
		return 0
	}
	i := int(math.Log2(us) * 4)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// observe records one latency sample. The bucket is incremented before
// count: quantile loads count first and then sums buckets, so any count
// increment it sees has its bucket increment visible too, and the summed
// buckets can only meet or exceed the rank derived from count — never
// fall short of it.
//
//rsmi:noalloc
func (h *histogram) observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// bucketMid returns the geometric midpoint of bucket i,
// [2^(i/4), 2^((i+1)/4)) µs.
func bucketMid(i int) time.Duration {
	us := math.Exp2((float64(i) + 0.5) / 4)
	return time.Duration(us * 1e3)
}

// histSnapshot is a point-in-time copy of one or more histograms:
// snapshotInto accumulates, so per-transport histograms of the same op
// merge into one summary for /v1/stats, and quantiles are computed on a
// consistent local copy rather than racing the live atomics bucket by
// bucket.
type histSnapshot struct {
	count   int64
	sumNS   int64
	buckets [histBuckets]int64
}

// snapshotInto adds h's current state to s. The count is loaded before
// the buckets (mirroring observe's bucket-before-count order), so the
// summed buckets can only meet or exceed the rank derived from count.
func (h *histogram) snapshotInto(s *histSnapshot) {
	s.count += h.count.Load()
	s.sumNS += h.sumNS.Load()
	for i := range h.buckets {
		s.buckets[i] += h.buckets[i].Load()
	}
}

// quantile estimates the q-th latency quantile (q in (0, 1]) as the
// geometric midpoint of the bucket holding the q-th sample; it returns 0
// when no samples were recorded. Concurrent observes make the estimate
// approximate, which is fine for a stats endpoint — but never wrong by
// construction: if the summed buckets fall short of count (an observe
// between the count load and the bucket scan), the answer clamps to the
// last non-empty bucket instead of running off the end and reporting the
// ~2^30 µs top of range as a latency.
func (s *histSnapshot) quantile(q float64) time.Duration {
	total := s.count
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	last := -1
	for i := range s.buckets {
		n := s.buckets[i]
		if n == 0 {
			continue
		}
		last = i
		cum += n
		if cum >= rank {
			return bucketMid(i)
		}
	}
	if last >= 0 {
		return bucketMid(last)
	}
	return 0
}

// stats summarises the snapshot. The mean is exact (running sum over
// count, not bucket midpoints); the percentiles — p999 included — are
// quarter-octave estimates.
func (s *histSnapshot) stats() wire.OpStats {
	st := wire.OpStats{
		Count:  s.count,
		P50us:  float64(s.quantile(0.50).Nanoseconds()) / 1e3,
		P95us:  float64(s.quantile(0.95).Nanoseconds()) / 1e3,
		P99us:  float64(s.quantile(0.99).Nanoseconds()) / 1e3,
		P999us: float64(s.quantile(0.999).Nanoseconds()) / 1e3,
	}
	if st.Count > 0 {
		st.MeanUs = float64(s.sumNS) / float64(st.Count) / 1e3
	}
	return st
}

// mergedStats summarises several histograms (the per-transport
// histograms of one op) as one.
func mergedStats(hs ...*histogram) wire.OpStats {
	var s histSnapshot
	for _, h := range hs {
		h.snapshotInto(&s)
	}
	return s.stats()
}
