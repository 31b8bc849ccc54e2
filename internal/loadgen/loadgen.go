// Package loadgen drives a serving endpoint (internal/server) with
// closed-loop or open-loop clients and reports throughput, status mix,
// and latency percentiles. It backs cmd/rsmi-loadgen, the `serving`
// bench experiment, and the CI smoke jobs, speaking either wire protocol
// (JSON or rsmibin/1, Config.Proto) over either transport (per-request
// HTTP or the persistent pipelined TCP stream, Config.Transport).
//
// Closed-loop (the default) means each client goroutine issues one
// request, waits for the answer, and immediately issues the next:
// offered load rises with the client count, and when the server sheds
// (429) the client simply continues — the shed rate is part of the
// report.
//
// Open-loop (Config.Rate > 0) issues requests on a fixed arrival
// schedule regardless of completions, the way real traffic arrives.
// Latency is measured from each request's *scheduled* arrival time, so
// queueing delay when the server falls behind is charged to the server
// (no coordinated omission).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/server"
	"rsmi/internal/wire"
)

// Mix is an operation mix as relative weights (they need not sum to any
// particular total).
type Mix struct {
	Point  int
	Window int
	KNN    int
	Insert int
	Delete int
	// SQL drives POST /v1/sql with generated spatial SQL (a rotation of
	// window, ordered-window, and kNN statements). SQL is not batchable,
	// so with BatchSize > 1 its weight folds into Window.
	SQL int
}

// DefaultMix is a read-mostly serving mix.
var DefaultMix = Mix{Point: 20, Window: 60, KNN: 10, Insert: 5, Delete: 5}

// total returns the weight sum.
func (m Mix) total() int { return m.Point + m.Window + m.KNN + m.Insert + m.Delete + m.SQL }

// String renders the mix in the -mix flag syntax.
func (m Mix) String() string {
	return fmt.Sprintf("point=%d,window=%d,knn=%d,insert=%d,delete=%d,sql=%d",
		m.Point, m.Window, m.KNN, m.Insert, m.Delete, m.SQL)
}

// ParseMix parses "window=80,point=10,knn=10"-style mixes; omitted ops
// get weight 0.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		switch name {
		case "point":
			m.Point = w
		case "window":
			m.Window = w
		case "knn":
			m.KNN = w
		case "insert":
			m.Insert = w
		case "delete":
			m.Delete = w
		case "sql":
			m.SQL = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown op %q", name)
		}
	}
	if m.total() == 0 {
		return Mix{}, errors.New("loadgen: empty mix")
	}
	return m, nil
}

// Config configures one load-generation run.
type Config struct {
	// Addrs lists every serving target ("host:port" or http:// URL):
	// the primary and its replicas. Required. With more than one, reads
	// are hedged across the set (after server.DefaultHedgeDelay) and
	// writes fail over on transport errors.
	Addrs []string
	// Clients is the closed-loop client count (default 4).
	Clients int
	// Duration is how long to drive load (default 2s).
	Duration time.Duration
	// Mix is the operation mix (default DefaultMix).
	Mix Mix
	// K is the kNN parameter (default 10).
	K int
	// WindowFrac is the window area as a fraction of the unit data space
	// (default 0.0001, the paper's bold default).
	WindowFrac float64
	// BatchSize > 1 groups that many operations into one /v1/batch
	// request per round-trip; 1 sends one operation per request.
	BatchSize int
	// Seed drives query generation (default 1).
	Seed int64
	// Proto selects the HTTP wire protocol (default server.ProtoJSON).
	// Ignored by the TCP transport, which always speaks rsmibin.
	Proto server.Proto
	// Transport selects HTTP requests or the persistent pipelined TCP
	// stream (default server.TransportHTTP). With TransportTCP, Addrs
	// name the servers' -stream-addr listeners.
	Transport server.Transport
	// Timeout bounds one request round-trip (default 30 s; see
	// server.WithTimeout).
	Timeout time.Duration
	// Rate > 0 switches to open-loop mode: requests arrive at this many
	// requests per second on a fixed schedule, spread across the client
	// goroutines, regardless of completions (each request still carries
	// BatchSize operations). 0 is closed-loop.
	Rate float64
	// Subscribers > 0 registers that many standing window queries
	// (windows of WindowFrac area at uniform centres) before driving
	// load, drains their notifications for the whole run, and reports
	// the notification tally. Requires TransportTCP and a single target.
	Subscribers int
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.WindowFrac == 0 {
		c.WindowFrac = 0.0001
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Transport == "" {
		c.Transport = server.TransportHTTP
	}
	if c.Transport == server.TransportTCP {
		// The stream transport is binary-only.
		c.Proto = server.ProtoBinary
	} else if c.Proto == "" {
		c.Proto = server.ProtoJSON
	}
	return c
}

// Report is the outcome of a run. Latencies are per HTTP request (a
// batched request's latency covers its whole batch; an open-loop
// request's latency starts at its scheduled arrival, queueing included).
type Report struct {
	Clients   int
	BatchSize int
	Proto     server.Proto
	Transport server.Transport
	// OfferedRate is the open-loop arrival rate in requests/s (0 for
	// closed-loop runs).
	OfferedRate float64
	Elapsed     time.Duration
	// Requests counts HTTP round-trips; Ops counts operations (equal
	// unless batching).
	Requests int64
	Ops      int64
	// OK counts 2xx requests, Shed 429s, Errors everything else
	// (including transport failures).
	OK     int64
	Shed   int64
	Errors int64
	// Throughput in operations per second (completed requests only).
	OpsPerSec float64
	// Latency percentiles over successful requests.
	P50, P95, P99, Max time.Duration
	// Targets is how many serving addresses the run drove (hedging is
	// active when > 1); Hedges counts hedge requests fired and HedgeWins
	// how many the hedge leg answered first.
	Targets   int
	Hedges    int64
	HedgeWins int64
	// Subscribers is how many standing queries the run held open;
	// Notifications counts push notifications drained and NotifyMissed
	// how many of them carried the missed (dropped-before-me) flag.
	Subscribers   int
	Notifications int64
	NotifyMissed  int64
}

// OKRate returns the fraction of requests answered 2xx (1.0 when no
// requests completed, so an idle run does not read as a failure).
func (r Report) OKRate() float64 {
	if r.Requests == 0 {
		return 1
	}
	return float64(r.OK) / float64(r.Requests)
}

// ShedRate returns the fraction of requests shed with 429.
func (r Report) ShedRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Requests)
}

// String renders the report for humans.
func (r Report) String() string {
	mode := ""
	if r.OfferedRate > 0 {
		mode = fmt.Sprintf(" open-loop rate=%.0f/s", r.OfferedRate)
	}
	if r.Transport == server.TransportTCP {
		mode = " transport=tcp" + mode
	}
	if r.Targets > 1 {
		mode += fmt.Sprintf(" targets=%d hedges=%d wins=%d", r.Targets, r.Hedges, r.HedgeWins)
	}
	if r.Subscribers > 0 {
		mode += fmt.Sprintf(" subscribers=%d notifications=%d missed=%d",
			r.Subscribers, r.Notifications, r.NotifyMissed)
	}
	return fmt.Sprintf(
		"clients=%d batch=%d proto=%s%s elapsed=%v\n"+
			"  requests %d (%.1f req/s), ops %d (%.1f ops/s)\n"+
			"  status: 2xx %d (%.2f%%), 429 %d (%.2f%%), errors %d\n"+
			"  latency: p50 %v  p95 %v  p99 %v  max %v",
		r.Clients, r.BatchSize, r.Proto, mode, r.Elapsed.Round(time.Millisecond),
		r.Requests, float64(r.Requests)/r.Elapsed.Seconds(),
		r.Ops, r.OpsPerSec,
		r.OK, 100*r.OKRate(), r.Shed, 100*r.ShedRate(), r.Errors,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
}

// clientStats is one goroutine's tally, merged after the run.
type clientStats struct {
	requests, ops, ok, shed, errs int64
	lat                           []time.Duration
}

// apiClient is the call surface the load generator drives — satisfied by
// both *server.Client (one target) and *server.HedgedClient (a replica
// set with hedged reads).
type apiClient interface {
	PointQuery(ctx context.Context, p geom.Point, opts ...server.QueryOpt) (bool, error)
	WindowQuery(ctx context.Context, q geom.Rect, opts ...server.QueryOpt) ([]geom.Point, error)
	KNN(ctx context.Context, q geom.Point, k int, opts ...server.QueryOpt) ([]geom.Point, error)
	SQL(ctx context.Context, query string, opts ...server.QueryOpt) ([]geom.Point, error)
	Insert(ctx context.Context, p geom.Point, opts ...server.QueryOpt) error
	Delete(ctx context.Context, p geom.Point, opts ...server.QueryOpt) (bool, error)
	Batch(ctx context.Context, ops []wire.BatchOp, opts ...server.QueryOpt) ([]wire.BatchResult, error)
	Close()
}

// errNoTarget refuses a run with no address to drive.
var errNoTarget = errors.New("loadgen: no target address (Config.Addrs is empty)")

// Run drives the configured load and blocks until the duration elapses.
// It returns an error only when the run produced no successful request at
// all (server down); partial failures are reported in the Report.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return Report{}, errNoTarget
	}
	// Bound the open-loop rate so the per-arrival interval neither
	// truncates to zero (rate too high: every scheduled arrival pins at
	// the start time and the schedule never passes the deadline) nor
	// overflows time.Duration (rate too low: the int64 conversion goes
	// negative, same symptom). 1e-3..1e6 req/s covers every real run.
	if cfg.Rate != 0 && (math.IsNaN(cfg.Rate) || cfg.Rate < 1e-3 || cfg.Rate > 1e6) {
		return Report{}, fmt.Errorf("loadgen: rate %v out of range (want 0 or 1e-3..1e6 req/s)", cfg.Rate)
	}
	var cl apiClient
	var hc *server.HedgedClient
	if len(cfg.Addrs) > 1 {
		targets := make([]*server.Client, len(cfg.Addrs))
		for i, a := range cfg.Addrs {
			targets[i] = server.NewClient(a,
				server.WithProto(cfg.Proto),
				server.WithTransport(cfg.Transport),
				server.WithTimeout(cfg.Timeout))
		}
		hc = server.NewHedgedClient(targets)
		cl = hc
	} else {
		cl = server.NewClient(cfg.Addrs[0],
			server.WithProto(cfg.Proto),
			server.WithTransport(cfg.Transport),
			server.WithTimeout(cfg.Timeout))
	}
	defer cl.Close()

	// Standing-query subscribers: register before load starts, drain for
	// the whole run so the server's outboxes never mark this client slow.
	var subNotes, subMissed atomic.Int64
	if cfg.Subscribers > 0 {
		sc, ok := cl.(*server.Client)
		if !ok {
			return Report{}, errors.New("loadgen: subscribers need a single target (not a hedged set)")
		}
		if cfg.Transport != server.TransportTCP {
			return Report{}, errors.New("loadgen: subscribers need the tcp transport")
		}
		notes, err := sc.Notifications()
		if err != nil {
			return Report{}, err
		}
		subRng := rand.New(rand.NewSource(cfg.Seed + 104729))
		sw := math.Sqrt(cfg.WindowFrac)
		for i := 0; i < cfg.Subscribers; i++ {
			q := geom.RectAround(geom.Pt(subRng.Float64(), subRng.Float64()), sw, sw)
			if err := sc.SubscribeWindow(context.Background(), uint64(i+1), q); err != nil {
				return Report{}, fmt.Errorf("loadgen: subscribe %d/%d: %w", i+1, cfg.Subscribers, err)
			}
		}
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case n := <-notes:
					subNotes.Add(1)
					if n.Missed {
						subMissed.Add(1)
					}
				case <-done:
					return
				}
			}
		}()
	}

	stats := make([]clientStats, cfg.Clients)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			if cfg.Rate > 0 {
				runOpenClient(cl, cfg, rng, w, start, deadline, &stats[w])
			} else {
				runClient(cl, cfg, rng, deadline, &stats[w])
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep Report
	rep.Clients = cfg.Clients
	rep.BatchSize = cfg.BatchSize
	rep.Proto = cfg.Proto
	rep.Transport = cfg.Transport
	rep.OfferedRate = cfg.Rate
	rep.Elapsed = elapsed
	rep.Targets = len(cfg.Addrs)
	if hc != nil {
		rep.Hedges = hc.Hedges()
		rep.HedgeWins = hc.HedgeWins()
	}
	rep.Subscribers = cfg.Subscribers
	rep.Notifications = subNotes.Load()
	rep.NotifyMissed = subMissed.Load()
	var all []time.Duration
	for i := range stats {
		rep.Requests += stats[i].requests
		rep.Ops += stats[i].ops
		rep.OK += stats[i].ok
		rep.Shed += stats[i].shed
		rep.Errors += stats[i].errs
		all = append(all, stats[i].lat...)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pick := func(q float64) time.Duration {
			i := int(math.Ceil(q*float64(len(all)))) - 1
			if i < 0 {
				i = 0
			}
			return all[i]
		}
		rep.P50, rep.P95, rep.P99 = pick(0.50), pick(0.95), pick(0.99)
		rep.Max = all[len(all)-1]
	}
	if rep.OK == 0 && rep.Errors > 0 {
		return rep, fmt.Errorf("loadgen: no successful request against %s (%d errors)",
			strings.Join(cfg.Addrs, ","), rep.Errors)
	}
	return rep, nil
}

// issueOne sends one request (a whole batch when configured) and
// returns how many operations it carried.
func issueOne(ctx context.Context, cl apiClient, cfg Config, rng *rand.Rand, w float64) (int, error) {
	if cfg.BatchSize > 1 {
		ops := make([]wire.BatchOp, cfg.BatchSize)
		for i := range ops {
			// SQL statements are single-request only (the server rejects
			// them inside multi-op batches), so batch runs fold the SQL
			// weight into windows.
			ops[i] = randomOp(cfg, rng, w, false)
		}
		_, err := cl.Batch(ctx, ops)
		return len(ops), err
	}
	return 1, sendOne(ctx, cl, randomOp(cfg, rng, w, true))
}

// record tallies one completed request; it reports whether the caller
// should back off (transport error, likely a dead server).
func (st *clientStats) record(lat time.Duration, nOps int, err error) bool {
	st.requests++
	if err == nil {
		st.ok++
		st.ops += int64(nOps)
		st.lat = append(st.lat, lat)
		return false
	}
	var se *wire.StatusError
	if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
		st.shed++
		return false
	}
	st.errs++
	return true
}

// runClient is one closed-loop client.
func runClient(cl apiClient, cfg Config, rng *rand.Rand, deadline time.Time, st *clientStats) {
	ctx := context.Background()
	w := math.Sqrt(cfg.WindowFrac)
	for time.Now().Before(deadline) {
		start := time.Now()
		nOps, err := issueOne(ctx, cl, cfg, rng, w)
		if st.record(time.Since(start), nOps, err) {
			// Back off briefly so a dead server does not spin the CPU.
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// runOpenClient is one open-loop worker: arrival i is scheduled at
// start + i/Rate, and worker w handles arrivals w, w+Clients, … — a
// fixed schedule the pool executes regardless of completions. A worker
// that falls behind issues its overdue arrivals immediately, and their
// latency still counts from the scheduled time, so server queueing
// (or worker starvation — raise Clients) is measured, not hidden.
func runOpenClient(cl apiClient, cfg Config, rng *rand.Rand, worker int, start, deadline time.Time, st *clientStats) {
	ctx := context.Background()
	w := math.Sqrt(cfg.WindowFrac)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	for i := worker; ; i += cfg.Clients {
		sched := start.Add(time.Duration(i) * interval)
		if sched.After(deadline) {
			return
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		nOps, err := issueOne(ctx, cl, cfg, rng, w)
		if st.record(time.Since(sched), nOps, err) {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// randomOp draws one operation from the mix. Queries are uniform over the
// unit data space. allowSQL=false (batch mode) folds the SQL weight into
// windows, since SQL is not allowed inside multi-op batches.
func randomOp(cfg Config, rng *rand.Rand, w float64, allowSQL bool) wire.BatchOp {
	p := geom.Pt(rng.Float64(), rng.Float64())
	r := rng.Intn(cfg.Mix.total())
	m := cfg.Mix
	switch {
	case r < m.Point:
		return wire.BatchOp{Op: wire.OpPoint, X: p.X, Y: p.Y}
	case r < m.Point+m.Window:
		q := geom.RectAround(p, w, w)
		return wire.BatchOp{Op: wire.OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
	case r < m.Point+m.Window+m.KNN:
		return wire.BatchOp{Op: wire.OpKNN, X: p.X, Y: p.Y, K: cfg.K}
	case r < m.Point+m.Window+m.KNN+m.Insert:
		return wire.BatchOp{Op: wire.OpInsert, X: p.X, Y: p.Y}
	case r < m.Point+m.Window+m.KNN+m.Insert+m.Delete:
		return wire.BatchOp{Op: wire.OpDelete, X: p.X, Y: p.Y}
	default:
		if !allowSQL {
			q := geom.RectAround(p, w, w)
			return wire.BatchOp{Op: wire.OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
		}
		return wire.BatchOp{Op: wire.OpSQL, SQL: randomSQL(cfg, rng, p, w)}
	}
}

// randomSQL rotates through the dialect's three query shapes around a
// uniform centre point.
func randomSQL(cfg Config, rng *rand.Rand, p geom.Point, w float64) string {
	switch rng.Intn(3) {
	case 0:
		q := geom.RectAround(p, w, w)
		return fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
			q.MinX, q.MinY, q.MaxX, q.MaxY)
	case 1:
		q := geom.RectAround(p, w, w)
		return fmt.Sprintf(
			"SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g)) ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT %d",
			q.MinX, q.MinY, q.MaxX, q.MaxY, p.X, p.Y, cfg.K)
	default:
		return fmt.Sprintf("SELECT * FROM points ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT %d",
			p.X, p.Y, cfg.K)
	}
}

// sendOne routes a single operation through its dedicated endpoint (so
// unbatched runs measure the per-request path).
func sendOne(ctx context.Context, cl apiClient, op wire.BatchOp) error {
	switch op.Op {
	case wire.OpPoint:
		_, err := cl.PointQuery(ctx, geom.Pt(op.X, op.Y))
		return err
	case wire.OpWindow:
		_, err := cl.WindowQuery(ctx, geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY})
		return err
	case wire.OpKNN:
		_, err := cl.KNN(ctx, geom.Pt(op.X, op.Y), op.K)
		return err
	case wire.OpSQL:
		_, err := cl.SQL(ctx, op.SQL)
		return err
	case wire.OpInsert:
		return cl.Insert(ctx, geom.Pt(op.X, op.Y))
	default:
		_, err := cl.Delete(ctx, geom.Pt(op.X, op.Y))
		return err
	}
}
