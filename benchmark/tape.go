package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/workload"
)

// The paper's defaults (§6.1, via internal/workload): k = 25 and windows of
// area 1e-4 of the data space. A fifth of the windows are ten times larger,
// and a fifth of the point probes look for a point that is not there.
const (
	largeWindow    = 1e-3
	largeWindowPct = 20
	absentPct      = 20
)

var (
	knnK        = workload.DefaultK
	smallWindow = workload.DefaultWindowSize
)

// dataSeed fixes the data set of every workload. Only the operation tapes
// follow --seed: two data sets drawn from different seeds train different
// models, and the same window tape then differs 2.5× in latency between
// them (18.7 µs vs 48.3 µs measured on osm at 100k), far beyond any bound a
// regression gate could use. See README.md, "Seeds".
const dataSeed = 1

type opKind uint8

const (
	opPoint opKind = iota
	opWindow
	opKNN
	opInsert
	opDelete
)

// class is the latency cell an operation reports into: inserts and deletes
// pool into write.
type class int

const (
	cPoint class = iota
	cWindow
	cKNN
	cWrite
	numClasses
)

var classNames = [numClasses]string{"point", "window", "knn", "write"}

func (k opKind) class() class {
	switch k {
	case opPoint:
		return cPoint
	case opWindow:
		return cWindow
	case opKNN:
		return cKNN
	}
	return cWrite
}

// op is one operation of a tape. p is the probe, the kNN centre or the
// written point; r is the window. want is the answer the tape knows in
// advance: presence for a point probe, success for a delete.
type op struct {
	kind opKind
	want bool
	p    geom.Point
	r    geom.Rect
}

// tapes is everything one run replays, generated once from the seed.
type tapes struct {
	data []geom.Point
	// class holds one tape per class for the round-based workloads; the
	// write tape is insert→delete pairs of points that are not in data.
	class [numClasses][]op
	// mixed is the embed-write tape: segments × segOps operations whose
	// answers depend on the writes before them.
	mixed []op
	// recallW and recallK are the fixed recall samples, taken after the
	// timed region; exactW and exactK the exact-vs-brute-force sample.
	recallW, exactW []geom.Rect
	recallK, exactK []geom.Point
}

// sizes says how long each tape is.
type sizes struct {
	n                           int
	point, window, knn, pairs   int
	segments, segOps            int
	recallW, recallK, exactEach int
}

// curveSorted returns the points in Hilbert order. Centres taken at a fixed
// stride along it are spread over space the way the data is, so two seeds
// give tapes with the same mix of dense and sparse neighbourhoods and their
// medians differ by sampling error of a stratified, not an independent,
// sample.
func curveSorted(pts []geom.Point) []geom.Point {
	const order = 16
	c := sfc.New(sfc.Hilbert, order)
	side := float64(c.Side() - 1)
	type keyed struct {
		v uint64
		p geom.Point
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		ks[i] = keyed{c.Value(uint32(p.X*side), uint32(p.Y*side)), p}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].v != ks[j].v {
			return ks[i].v < ks[j].v
		}
		return ks[i].p.Less(ks[j].p)
	})
	out := make([]geom.Point, len(ks))
	for i, k := range ks {
		out[i] = k.p
	}
	return out
}

// stratified draws m points at a fixed stride along sorted, starting at a
// random offset, and returns them in random order.
func stratified(rng *rand.Rand, sorted []geom.Point, m int) []geom.Point {
	out := make([]geom.Point, m)
	stride := float64(len(sorted)) / float64(m)
	off := rng.Float64() * stride
	for i := range out {
		out[i] = sorted[int(off+float64(i)*stride)%len(sorted)]
	}
	rng.Shuffle(m, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fresh returns a point near c that is in none of the sets.
func fresh(rng *rand.Rand, c geom.Point, taken ...map[geom.Point]struct{}) geom.Point {
	for {
		p := geom.Pt(clamp01(c.X+(rng.Float64()-0.5)*2e-4), clamp01(c.Y+(rng.Float64()-0.5)*2e-4))
		free := true
		for _, t := range taken {
			if _, ok := t[p]; ok {
				free = false
			}
		}
		if free {
			return p
		}
	}
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

func windowAt(c geom.Point, area float64) geom.Rect {
	side := math.Sqrt(area)
	return geom.RectAround(c, side, side)
}

// windowsAt centres m windows on stratified data points, largeWindowPct of
// them large; each size gets its own stratified sample so the share of large
// windows over dense data does not depend on the seed.
func windowsAt(rng *rand.Rand, sorted []geom.Point, m int) []geom.Rect {
	large := m * largeWindowPct / 100
	out := make([]geom.Rect, 0, m)
	for _, c := range stratified(rng, sorted, m-large) {
		out = append(out, windowAt(c, smallWindow))
	}
	for _, c := range stratified(rng, sorted, large) {
		out = append(out, windowAt(c, largeWindow))
	}
	rng.Shuffle(m, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func setOf(pts []geom.Point) map[geom.Point]struct{} {
	s := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		s[p] = struct{}{}
	}
	return s
}

// buildTapes generates the data set and every tape of a run. The same
// (kind, sizes, seed) always gives the same tapes.
func buildTapes(kind dataset.Kind, sz sizes, seed int64) *tapes {
	t := &tapes{data: dataset.Generate(kind, sz.n, dataSeed)}
	rng := rand.New(rand.NewSource(seed))
	sorted := curveSorted(t.data)
	live := setOf(t.data)

	absent := sz.point * absentPct / 100
	for _, p := range stratified(rng, sorted, sz.point-absent) {
		t.class[cPoint] = append(t.class[cPoint], op{kind: opPoint, p: p, want: true})
	}
	for _, c := range stratified(rng, sorted, absent) {
		t.class[cPoint] = append(t.class[cPoint], op{kind: opPoint, p: fresh(rng, c, live)})
	}
	pt := t.class[cPoint]
	rng.Shuffle(len(pt), func(i, j int) { pt[i], pt[j] = pt[j], pt[i] })

	for _, r := range windowsAt(rng, sorted, sz.window) {
		t.class[cWindow] = append(t.class[cWindow], op{kind: opWindow, r: r})
	}
	for _, c := range stratified(rng, sorted, sz.knn) {
		t.class[cKNN] = append(t.class[cKNN], op{kind: opKNN, p: c})
	}
	written := map[geom.Point]struct{}{}
	for _, c := range stratified(rng, sorted, sz.pairs) {
		p := fresh(rng, c, live, written)
		written[p] = struct{}{}
		t.class[cWrite] = append(t.class[cWrite], op{kind: opInsert, p: p}, op{kind: opDelete, p: p, want: true})
	}

	t.mixed = mixedTape(rng, t.data, sz.segments*sz.segOps)

	t.recallW = windowsAt(rng, sorted, sz.recallW)
	t.recallK = stratified(rng, sorted, sz.recallK)
	t.exactW = windowsAt(rng, sorted, sz.exactEach)
	t.exactK = stratified(rng, sorted, sz.exactEach)
	return t
}

// mixedPattern is the embed-write mix per 100 operations: 50 inserts, 15
// deletes and 35 reads (22 point probes, 9 windows, 4 kNN).
var mixedPattern = func() []opKind {
	var p []opKind
	for _, m := range []struct {
		kind opKind
		n    int
	}{{opInsert, 50}, {opDelete, 15}, {opPoint, 22}, {opWindow, 9}, {opKNN, 4}} {
		for i := 0; i < m.n; i++ {
			p = append(p, m.kind)
		}
	}
	return p
}()

// mixedTape plays writes against a model of the live set while it
// generates, so every probe knows its answer and every delete has a victim.
// Inserted points are jittered copies of data points and reads centre on
// live points: the tape follows the data distribution as it drifts.
func mixedTape(rng *rand.Rand, data []geom.Point, total int) []op {
	if total == 0 {
		return nil
	}
	live := append([]geom.Point(nil), data...)
	in := setOf(data)
	pattern := append([]opKind(nil), mixedPattern...)
	tape := make([]op, 0, total)
	for len(tape) < total {
		rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
		for _, kind := range pattern {
			if len(tape) == total {
				break
			}
			pick := rng.Intn(len(live))
			o := op{kind: kind, p: live[pick]}
			switch kind {
			case opInsert:
				o.p = fresh(rng, data[rng.Intn(len(data))], in)
				in[o.p] = struct{}{}
				live = append(live, o.p)
			case opDelete:
				o.want = true
				delete(in, o.p)
				live[pick] = live[len(live)-1]
				live = live[:len(live)-1]
			case opPoint:
				o.want = rng.Intn(100) >= absentPct
				if !o.want {
					o.p = fresh(rng, o.p, in)
				}
			case opWindow:
				area := smallWindow
				if rng.Intn(100) < largeWindowPct {
					area = largeWindow
				}
				o.r = windowAt(o.p, area)
			}
			tape = append(tape, o)
		}
	}
	return tape
}

// hashOps is the tape's identity in the output: same seed, same hash.
func hashOps(ops []op) string {
	h := sha256.New()
	var buf [49]byte
	for _, o := range ops {
		buf[0] = byte(o.kind)
		if o.want {
			buf[0] |= 0x80
		}
		for i, v := range [6]float64{o.p.X, o.p.Y, o.r.MinX, o.r.MinY, o.r.MaxX, o.r.MaxY} {
			binary.LittleEndian.PutUint64(buf[1+8*i:], math.Float64bits(v))
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hashes names every tape of the run with its hash.
func (t *tapes) hashes() map[string]string {
	out := map[string]string{}
	for c, ops := range t.class {
		out[classNames[c]] = hashOps(ops)
	}
	if len(t.mixed) > 0 {
		out["mixed"] = hashOps(t.mixed)
	}
	sample := make([]op, 0, len(t.recallW)+len(t.recallK)+len(t.exactW)+len(t.exactK))
	for _, r := range append(append([]geom.Rect(nil), t.recallW...), t.exactW...) {
		sample = append(sample, op{kind: opWindow, r: r})
	}
	for _, p := range append(append([]geom.Point(nil), t.recallK...), t.exactK...) {
		sample = append(sample, op{kind: opKNN, p: p})
	}
	out["samples"] = hashOps(sample)
	return out
}
