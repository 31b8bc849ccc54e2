package plan

// The statistics layer: a selectivity estimator over the rank-space CDF
// (internal/cdf — the same piecewise-linear model family the RSMI
// learns) and per-backend cost models fitted from startup micro-probes,
// corrected online by an EWMA of observed-vs-estimated cost ratios.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
)

// Model is one backend's fitted cost model: constant point cost, and
// affine window/kNN costs in estimated rows and k respectively. All
// coefficients are microseconds.
type Model struct {
	PointUS        float64
	WindowBaseUS   float64
	WindowPerRowUS float64
	KNNBaseUS      float64
	KNNPerKUS      float64
}

// model is the live per-backend state: the fitted coefficients plus the
// online EWMA correction factor per query kind and the routing counter.
// The coefficients are immutable after calibration; the corrections and
// counters are atomics, so planning and observing never lock.
type model struct {
	Model
	adj    [3]atomicFloat // per Kind: EWMA of actual/estimated
	routed atomic.Int64
}

// atomicFloat is a float64 with atomic load/store (bit-cast through
// uint64), for the lock-free correction factors.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

// Correction factor bounds, EWMA weight, and mean-reversion. The
// corrections are deliberately a trim knob, not a steering wheel: the
// [0.5, 2] clamp lets persistent signal re-rank backends whose models
// sit within ~4× of each other (where calibration noise actually
// matters) but can never route across a larger model gap. Observations
// are wall-clock on a shared machine — only the routed backend is ever
// observed, so an unbounded correction lets load swings walk the
// incumbent's estimate past every other backend in turn, round-robining
// traffic through backends the models correctly price as several times
// worse. Gross regime change (an index degrading under churn, a
// dataset swap) is recalibration's job: Calibrate publishes new models
// through a copy-on-write snapshot and is safe to re-run while serving.
// Every update also pulls the correction slightly back toward 1
// (log-domain AR(1) with φ = 1−adjReversion) so noise-driven drift
// decays instead of accumulating.
//
// adjAlpha, the weight of one query's observation, is small: one query's
// wall clock includes whatever the scheduler interleaved, so a single
// preemption can read 10× high, while persistent signal still
// accumulates over a few dozen queries (32 observations move the
// correction about as far as one step of weight 0.1).
const (
	adjAlpha     = 0.1 / 32
	adjReversion = 0.02
	adjMin       = 0.5
	adjMax       = 2
)

// Mispredict thresholds: an observation counts as a misprediction when
// the actual cost lands outside [est/2, 2·est].
const mispredictFactor = 2

// ratioCap winsorizes a single observation's actual/estimated ratio
// before it enters the EWMA (see Observe).
const ratioCap = 8.0

// modelSet is the read-mostly model registry snapshot: the hot path
// (Choose, Observe — called per query) loads it with one atomic read,
// and calibration publishes updates by swapping the pointer.
type modelSet struct {
	order  []string
	models map[string]*model
}

// Stats is the planner's statistics store: the data-distribution CDFs
// the selectivity estimator evaluates, and one calibrated cost model
// per backend. Calibrate populates it at startup; Choose and Observe
// are safe for concurrent use at any point (an uncalibrated Stats
// plans empty fallback plans).
type Stats struct {
	n      int
	fx, fy *cdf.PMF
	span   geom.Rect
	sample []geom.Point

	mu  sync.Mutex // serialises setModel (snapshot copy-on-write)
	set atomic.Pointer[modelSet]

	planned     atomic.Int64
	observed    atomic.Int64
	mispredicts atomic.Int64
}

// NewStats builds the statistics store over the served point set: two
// marginal rank-space CDFs (x and y) for selectivity estimation and a
// deterministic probe sample for calibration.
func NewStats(pts []geom.Point) *Stats {
	s := &Stats{
		n:    len(pts),
		span: geom.EmptyRect(),
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
		s.span = s.span.Union(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	}
	s.fx = cdf.New(xs, cdf.DefaultGamma)
	s.fy = cdf.New(ys, cdf.DefaultGamma)
	// A strided sample keeps calibration probes spread over the data
	// distribution without holding the full set.
	const sampleCap = 1024
	stride := len(pts)/sampleCap + 1
	for i := 0; i < len(pts); i += stride {
		s.sample = append(s.sample, pts[i])
	}
	return s
}

// NewStatsFromModels builds a Stats with explicitly seeded cost models
// over a nominally uniform unit-square distribution of n points — the
// deterministic constructor planner tests use instead of wall-clock
// calibration.
func NewStatsFromModels(n int, models map[string]Model) *Stats {
	s := &Stats{
		n:    n,
		fx:   cdf.New([]float64{0, 1}, cdf.DefaultGamma),
		fy:   cdf.New([]float64{0, 1}, cdf.DefaultGamma),
		span: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
	}
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.setModel(name, models[name])
	}
	return s
}

// setModel publishes a (re)calibrated model copy-on-write: concurrent
// planners keep reading the old snapshot until the swap, so calibration
// never blocks the hot path. A recalibrated backend keeps its routing
// counter but has its corrections reset to 1.
func (s *Stats) setModel(name string, m Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.set.Load()
	next := &modelSet{models: map[string]*model{}}
	if old != nil {
		next.order = append(next.order, old.order...)
		for k, v := range old.models {
			next.models[k] = v
		}
	}
	lm := &model{Model: m}
	for k := range lm.adj {
		lm.adj[k].store(1)
	}
	if prev, ok := next.models[name]; ok {
		lm.routed.Store(prev.routed.Load())
	} else {
		next.order = append(next.order, name)
	}
	next.models[name] = lm
	s.set.Store(next)
}

// Model returns the fitted (uncorrected) cost model for a backend and
// whether one exists.
func (s *Stats) Model(name string) (Model, bool) {
	set := s.set.Load()
	if set == nil {
		return Model{}, false
	}
	m, ok := set.models[name]
	if !ok {
		return Model{}, false
	}
	return m.Model, true
}

// Backends lists the calibrated backends in registration order.
func (s *Stats) Backends() []string {
	set := s.set.Load()
	if set == nil {
		return nil
	}
	return append([]string(nil), set.order...)
}

// Selectivity estimates the fraction of the point set inside r as the
// product of the marginal CDF masses — exact for independent x/y,
// approximate otherwise, and always cheap (two PMF evaluations).
func (s *Stats) Selectivity(r geom.Rect) float64 {
	if r.IsEmpty() || s.n == 0 {
		return 0
	}
	sx := s.fx.Eval(r.MaxX) - s.fx.Eval(r.MinX)
	sy := s.fy.Eval(r.MaxY) - s.fy.Eval(r.MinY)
	if sx < 0 {
		sx = 0
	}
	if sy < 0 {
		sy = 0
	}
	return sx * sy
}

// EstRows estimates the result cardinality of a window query over r.
func (s *Stats) EstRows(r geom.Rect) float64 {
	return float64(s.n) * s.Selectivity(r)
}

// estimate returns the corrected cost estimate (µs) of q on m given the
// pre-computed estimated row count (windows only — callers hoist the
// selectivity evaluation out of the per-backend loop).
func estimate(m *model, q Query, rows float64) float64 {
	var costUS float64
	switch q.Kind {
	case KindPoint:
		costUS = m.PointUS
	case KindWindow:
		costUS = m.WindowBaseUS + m.WindowPerRowUS*rows
	case KindKNN:
		costUS = m.KNNBaseUS + m.KNNPerKUS*float64(q.K)
	}
	return costUS * m.adj[q.Kind].load()
}

// Choose plans q: the backend with the lowest corrected cost estimate.
// With no calibrated models the plan is empty (callers fall back to
// their primary backend).
func (s *Stats) Choose(q Query) Plan {
	s.planned.Add(1)
	set := s.set.Load()
	if set == nil {
		return Plan{}
	}
	var rows float64
	if q.Kind == KindWindow {
		rows = s.EstRows(q.Window)
	}
	var (
		best     *model
		pl       Plan
		bestCost = math.Inf(1)
	)
	for _, name := range set.order {
		m := set.models[name]
		cost := estimate(m, q, rows)
		if cost < bestCost {
			best, bestCost = m, cost
			pl = Plan{Backend: name, EstCostUS: cost, EstRows: rows}
		}
	}
	if best != nil {
		best.routed.Add(1)
	}
	return pl
}

// Observe feeds the measured cost of one executed query back into the
// model that planned it: the backend's per-kind correction factor moves
// toward the observed actual/estimated ratio by adjAlpha, and estimates
// off by more than 2× either way count as mispredictions.
func (s *Stats) Observe(pl Plan, q Query, actualUS float64) {
	if pl.Backend == "" || pl.EstCostUS <= 0 || actualUS <= 0 {
		return
	}
	set := s.set.Load()
	if set == nil {
		return
	}
	m := set.models[pl.Backend]
	if m == nil {
		return
	}
	s.observed.Add(1)
	ratio := actualUS / pl.EstCostUS
	if ratio > mispredictFactor || ratio < 1/float64(mispredictFactor) {
		s.mispredicts.Add(1)
	}
	// Winsorize the ratio before it reaches the EWMA: on a contended
	// machine a query that absorbs a whole preemption quantum reports a
	// cost 10–100× its CPU share, and a handful of such spikes would pin
	// the correction at its clamp even when the typical observation sits
	// near 1. Capping each observation's influence keeps the EWMA
	// tracking the typical ratio rather than the tail.
	if ratio > ratioCap {
		ratio = ratioCap
	} else if ratio < 1/ratioCap {
		ratio = 1 / ratioCap
	}
	adj := &m.adj[q.Kind]
	next := adj.load() * ((1 - adjAlpha) + adjAlpha*ratio)
	next = math.Pow(next, 1-adjReversion)
	if next < adjMin {
		next = adjMin
	} else if next > adjMax {
		next = adjMax
	}
	adj.store(next)
}

// Counters is a snapshot of the planner's routing and misprediction
// counters, for /metrics and /v1/stats.
type Counters struct {
	// Planned counts every planned query. Observed counts cost
	// observations fed back (one per executed query);
	// Mispredicts those observations whose actual cost landed outside
	// [est/2, 2·est].
	Planned     int64
	Observed    int64
	Mispredicts int64
	// Routed counts planned queries per chosen backend.
	Routed map[string]int64
}

// Counters snapshots the planner counters.
func (s *Stats) Counters() Counters {
	c := Counters{
		Planned:     s.planned.Load(),
		Observed:    s.observed.Load(),
		Mispredicts: s.mispredicts.Load(),
		Routed:      map[string]int64{},
	}
	if set := s.set.Load(); set != nil {
		for name, m := range set.models {
			c.Routed[name] = m.routed.Load()
		}
	}
	return c
}

// Calibration grid: window probe selectivities, kNN probe ks, and the
// probe centre / repetition counts. The grid is small on purpose — a
// full calibration of one backend costs tens of milliseconds.
var (
	calWindowFracs = []float64{1e-4, 1e-3, 1e-2, 5e-2}
	calKNNKs       = []int{1, 10, 100}
)

const (
	calCenters = 16
	// calPointCenters is the (larger) probe batch for point queries.
	// A point lookup costs fractions of a microsecond on the cheap
	// backends, far below the fixed cost of one batch call; probing
	// them at the window/kNN batch size lets that per-call cost swamp
	// the per-query signal and scramble the backend ordering. A few
	// hundred probes per call push the per-call term below the noise
	// floor. Capped by the stride sample size (1024).
	calPointCenters = 256
	// calProbeDur is the floor measurement window per probe grid cell:
	// duration-based probing makes the fitted coefficients repeatable
	// where a fixed repetition count would hand the cheap probes — the
	// ones routing decisions hinge on — only a few microseconds of
	// signal. Cells whose calls are expensive get a longer window (see
	// probeDur): a large-k kNN batch can cost milliseconds per call, and
	// a floor-sized window would fit only a handful of calls, making the
	// fitted ordering a coin flip between closely-priced backends.
	calProbeDur = 8 * time.Millisecond
	// calProbeMinCalls is the number of timed calls a cell's window is
	// sized to fit (across all workers) when one call costs more than
	// the floor window can accommodate.
	calProbeMinCalls = 24
	// calProbeMaxDur caps one cell's window so a pathologically slow
	// backend cannot stretch startup calibration unboundedly.
	calProbeMaxDur = 120 * time.Millisecond
	// calWorkers is how many goroutines drive each probe batch at once —
	// deliberately a stand-in for serving concurrency, NOT capped at
	// GOMAXPROCS. Probing under the same contention the server runs
	// under keeps estimates and runtime observations in comparable
	// units, and prices engines that parallelise one query internally
	// at the cores they spend, which an idle-machine probe would hide.
	calWorkers = 4
)

// probeDur sizes one grid cell's measurement window from the measured
// cost of a single probe call: the floor window for cheap cells, scaled
// up so calProbeMinCalls timed calls fit across the workers for
// expensive ones, capped at calProbeMaxDur. Scaling with per-call cost
// gives every cell comparable statistical weight — under fixed windows
// the expensive cells (large-k kNN, wide windows) got a handful of
// calls while the cheap ones got thousands.
func probeDur(warm time.Duration) time.Duration {
	d := warm * calProbeMinCalls / calWorkers
	if d < calProbeDur {
		return calProbeDur
	}
	if d > calProbeMaxDur {
		return calProbeMaxDur
	}
	return d
}

// runProbes drives one batch probe repeatedly from calWorkers
// goroutines for a window scaled to the probe's per-call cost (see
// probeDur) and returns the mean cost of one query in CPU-µs
// (workers × wall / queries) and the mean per-query result count.
// A probe is a batch call, which on every engine is a loop of single
// queries: one call per grid cell, many queries per call.
func runProbes(batchSize int, probe func() (int, error)) (usPerQuery, rowsPerQuery float64, err error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		queries  int
		rows     int
		firstErr error
	)
	// One untimed warm-up call so the first timed probe doesn't pay
	// cold-cache cost — the smallest probes run first and are exactly
	// the ones a constant error term distorts most. Timing it also
	// prices the cell: the warm-up's duration sizes the window.
	warmStart := time.Now()
	if _, err := probe(); err != nil {
		return 0, 0, err
	}
	dur := probeDur(time.Since(warmStart))
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, r := 0, 0
			for ok := true; ok; ok = time.Now().Before(deadline) {
				k, err := probe()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				n += batchSize
				r += k
				// Yield between probe calls: small CPU-bound calls
				// otherwise run back-to-back inside one scheduler
				// quantum, so the "concurrent" workers serialise in
				// ~10ms slices and the wall clock measures an
				// arbitrary mix instead of fair interleaving. The
				// yield is a constant per-call cost shared by every
				// backend, amortised over the batch.
				runtime.Gosched()
			}
			mu.Lock()
			queries += n
			rows += r
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := usSince(start)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return wall * calWorkers / float64(queries), float64(rows) / float64(queries), nil
}

// Calibrate fits eng's cost model from a micro-probe grid: point probes
// at sampled data points, windows across calWindowFracs selectivities
// (cost fitted against *actual* returned rows, which also exercises the
// estimator's domain), and kNN across calKNNKs. Probes run concurrently
// (see calWorkers and runProbes), each a batch call that loops over the
// engine's single-query path, so the fitted coefficients are the
// per-query CPU cost of the path the server runs, under serving-shaped
// load.
// It stores the model under eng.Name() and resets its corrections to 1.
func (s *Stats) Calibrate(ctx context.Context, eng rsmi.Engine) error {
	if len(s.sample) == 0 {
		return fmt.Errorf("plan: calibrate %s: no sample points (build Stats with NewStats)", eng.Name())
	}
	pick := func(max int) []geom.Point {
		centers := s.sample
		if len(centers) <= max {
			return centers
		}
		stride := len(centers) / max
		picked := make([]geom.Point, 0, max)
		for i := 0; i < len(centers) && len(picked) < max; i += stride {
			picked = append(picked, centers[i])
		}
		return picked
	}
	centers := pick(calCenters)
	spanW := s.span.MaxX - s.span.MinX
	spanH := s.span.MaxY - s.span.MinY
	if spanW <= 0 || spanH <= 0 {
		spanW, spanH = 1, 1
	}
	// Half the point probes are scrambled off the data points into
	// (almost surely) misses: served point probes are drawn from the
	// whole data space, and a miss costs very differently per backend —
	// a tree must visit every subtree whose box covers the point to
	// prove absence, while a grid cell simply comes up empty. Probing
	// only resident points would price the hit path and route the
	// misses wrong. The scramble is a deterministic golden-ratio hop, so
	// calibration stays reproducible for a given point set.
	pointCenters := append([]geom.Point(nil), pick(calPointCenters)...)
	const phi = 0.6180339887498949
	for i := 1; i < len(pointCenters); i += 2 {
		u := math.Mod((pointCenters[i].X-s.span.MinX)/spanW+float64(i)*phi, 1)
		v := math.Mod((pointCenters[i].Y-s.span.MinY)/spanH+float64(i+1)*phi, 1)
		pointCenters[i] = geom.Pt(s.span.MinX+u*spanW, s.span.MinY+v*spanH)
	}
	var m Model

	// Point probes: constant model, mean over the grid.
	us, _, err := runProbes(len(pointCenters), func() (int, error) {
		_, err := eng.BatchPointQueryContext(ctx, pointCenters)
		return 0, err
	})
	if err != nil {
		return fmt.Errorf("plan: calibrate %s: %w", eng.Name(), err)
	}
	m.PointUS = us

	// Window probes: one (mean rows, mean µs) sample per selectivity,
	// then a least-squares line through them.
	var rowsXs, usYs []float64
	for _, frac := range calWindowFracs {
		side := math.Sqrt(frac)
		rects := make([]geom.Rect, len(centers))
		for i, c := range centers {
			rects[i] = geom.RectAround(c, side*spanW, side*spanH)
		}
		us, rows, err := runProbes(len(rects), func() (int, error) {
			rs, err := eng.BatchWindowQueryContext(ctx, rects)
			if err != nil {
				return 0, err
			}
			total := 0
			for _, r := range rs {
				total += len(r)
			}
			return total, nil
		})
		if err != nil {
			return fmt.Errorf("plan: calibrate %s: %w", eng.Name(), err)
		}
		rowsXs = append(rowsXs, rows)
		usYs = append(usYs, us)
	}
	m.WindowBaseUS, m.WindowPerRowUS = fitLinear(rowsXs, usYs)

	// kNN probes: one sample per k, same fit.
	var kXs, kUs []float64
	for _, k := range calKNNKs {
		qs := make([]shard.KNNQuery, len(centers))
		for i, c := range centers {
			qs[i] = shard.KNNQuery{Q: c, K: k}
		}
		us, _, err := runProbes(len(qs), func() (int, error) {
			_, err := eng.BatchKNNContext(ctx, qs)
			return 0, err
		})
		if err != nil {
			return fmt.Errorf("plan: calibrate %s: %w", eng.Name(), err)
		}
		kXs = append(kXs, float64(k))
		kUs = append(kUs, us)
	}
	m.KNNBaseUS, m.KNNPerKUS = fitLinear(kXs, kUs)

	s.setModel(eng.Name(), m)
	return nil
}

func usSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// fitLinear least-squares-fits y = base + slope·x under relative error
// (weights 1/y²), clamping to the physically meaningful region
// (non-negative slope, positive base). The probe grid spans three
// decades of cost; an absolute-error fit would be dominated by the
// largest probes and misprice the cheap ones — where backends differ
// most and nearly all routing decisions happen.
func fitLinear(xs, ys []float64) (base, slope float64) {
	if len(xs) == 0 {
		return 1, 0
	}
	var sumW, sumWX, sumWY, sumWXY, sumWXX float64
	for i := range xs {
		y := ys[i]
		if y < 0.05 {
			y = 0.05
		}
		w := 1 / (y * y)
		sumW += w
		sumWX += w * xs[i]
		sumWY += w * ys[i]
		sumWXY += w * xs[i] * ys[i]
		sumWXX += w * xs[i] * xs[i]
	}
	meanX, meanY := sumWX/sumW, sumWY/sumW
	cov := sumWXY - sumW*meanX*meanY
	varX := sumWXX - sumW*meanX*meanX
	if varX > 0 {
		slope = cov / varX
	}
	if slope < 0 {
		slope = 0
	}
	base = meanY - slope*meanX
	if base < 0.05 {
		base = 0.05
	}
	return base, slope
}
