package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"rsmi/internal/geom"
)

// answer is what a timed loop keeps of a result: the row count (0 or 1 for
// a flag) and an order-independent fingerprint of the rows. The checked
// pass, which compares every row against the oracle, records one per
// operation; every later execution of the same operation — another round,
// another transport — must reproduce it.
type answer struct {
	n  int32
	fp uint64
}

func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

func fingerprint(x, y float64) uint64 {
	return mix(math.Float64bits(x)) + bits.RotateLeft64(mix(math.Float64bits(y)), 17)
}

func answerOf(pts []geom.Point) answer {
	a := answer{n: int32(len(pts))}
	for _, p := range pts {
		a.fp += fingerprint(p.X, p.Y)
	}
	return a
}

func answerFlag(b bool) answer {
	if b {
		return answer{n: 1}
	}
	return answer{}
}

// checker counts every answer examined and every one that was wrong, per
// class; a transport error, a non-2xx status, a shed request or a timeout
// is a wrong answer.
type checker struct {
	attempted, failed [numClasses]atomic.Int64

	mu    sync.Mutex
	first []string
}

func (c *checker) pass(cl class) { c.attempted[cl].Add(1) }

func (c *checker) fail(cl class, format string, args ...any) {
	c.attempted[cl].Add(1)
	c.failed[cl].Add(1)
	c.mu.Lock()
	if len(c.first) < 8 {
		c.first = append(c.first, classNames[cl]+": "+fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// verdict counts err as a failure of cl when non-nil, else a pass.
func (c *checker) verdict(cl class, err error) {
	if err != nil {
		c.fail(cl, "%v", err)
		return
	}
	c.pass(cl)
}

func (c *checker) expect(o op, got, want answer) {
	if got != want {
		c.fail(o.kind.class(), "%v: got %d rows (fp %x), the checked pass had %d (fp %x)", o, got.n, got.fp, want.n, want.fp)
		return
	}
	c.pass(o.kind.class())
}

func (c *checker) totals() (attempted, failed int64) {
	for cl := range c.attempted {
		attempted += c.attempted[cl].Load()
		failed += c.failed[cl].Load()
	}
	return
}

func (o op) String() string {
	switch o.kind {
	case opWindow:
		return fmt.Sprintf("window %v", o.r)
	case opKNN:
		return fmt.Sprintf("knn %v", o.p)
	case opInsert:
		return fmt.Sprintf("insert %v", o.p)
	case opDelete:
		return fmt.Sprintf("delete %v", o.p)
	}
	return fmt.Sprintf("point %v", o.p)
}

// oracle is the live point set, kept by the benchmark itself. Each point
// has a slot in stamp so one map lookup per row proves both that the row is
// live and that the answer has not returned it before. One goroutine uses it.
type oracle struct {
	slot  map[geom.Point]int32
	stamp []uint32
	epoch uint32
}

func newOracle(pts []geom.Point) *oracle {
	or := &oracle{slot: make(map[geom.Point]int32, len(pts))}
	for _, p := range pts {
		or.insert(p)
	}
	return or
}

func (or *oracle) insert(p geom.Point) {
	or.slot[p] = int32(len(or.stamp))
	or.stamp = append(or.stamp, 0)
}

func (or *oracle) delete(p geom.Point) { delete(or.slot, p) }

func (or *oracle) points() []geom.Point {
	out := make([]geom.Point, 0, len(or.slot))
	for p := range or.slot {
		out = append(out, p)
	}
	return out
}

// rows checks what every approximate answer owes: each row is a live point,
// and none is returned twice.
func (or *oracle) rows(got []geom.Point) error {
	or.epoch++
	for _, p := range got {
		i, ok := or.slot[p]
		if !ok {
			return fmt.Errorf("row %v is not a live point", p)
		}
		if or.stamp[i] == or.epoch {
			return fmt.Errorf("row %v returned twice", p)
		}
		or.stamp[i] = or.epoch
	}
	return nil
}

func (or *oracle) window(r geom.Rect, got []geom.Point) error {
	for _, p := range got {
		if !r.Contains(p) {
			return fmt.Errorf("row %v lies outside %v", p, r)
		}
	}
	return or.rows(got)
}

func (or *oracle) knn(q geom.Point, k int, got []geom.Point) error {
	if len(got) > k {
		return fmt.Errorf("%d rows for k=%d", len(got), k)
	}
	for i := 1; i < len(got); i++ {
		if q.Dist2(got[i]) < q.Dist2(got[i-1]) {
			return fmt.Errorf("rows %d and %d are not in distance order", i-1, i)
		}
	}
	return or.rows(got)
}

// check applies the oracle to one executed operation, then applies the
// operation to the oracle.
func (or *oracle) check(o op, pts []geom.Point, flag bool) error {
	switch o.kind {
	case opWindow:
		return or.window(o.r, pts)
	case opKNN:
		return or.knn(o.p, knnK, pts)
	case opInsert:
		or.insert(o.p)
		if !flag {
			return fmt.Errorf("insert refused")
		}
	case opDelete:
		or.delete(o.p)
		fallthrough
	default:
		if flag != o.want {
			return fmt.Errorf("answered %v, the tape expects %v", flag, o.want)
		}
	}
	return nil
}

func bruteWindow(live []geom.Point, r geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range live {
		if r.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// bruteKNN scans live once, keeping the k nearest so far in distance order.
func bruteKNN(live []geom.Point, q geom.Point, k int) []geom.Point {
	best := make([]geom.Point, 0, k+1)
	for _, p := range live {
		if len(best) == k && q.Dist2(p) >= q.Dist2(best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return q.Dist2(best[i]) > q.Dist2(p) })
		best = append(best, p)
		copy(best[i+1:], best[i:])
		best[i] = p
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// sameSet reports whether a and b hold the same points, in any order.
func sameSet(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := append([]geom.Point(nil), a...), append([]geom.Point(nil), b...)
	for _, s := range [][]geom.Point{sa, sb} {
		sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// sameDistances reports whether a and b are equally good kNN answers: the
// same distances in the same order. Equidistant points may stand in for
// each other.
func sameDistances(q geom.Point, a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if q.Dist2(a[i]) != q.Dist2(b[i]) {
			return false
		}
	}
	return true
}
