package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/server"
)

const (
	shards = 2
	// epochs is the training length of every build. The paper's 500 would
	// make one set-up of the smallest workload take a minute; 10 is what
	// the repo's own serving experiments use.
	epochs = 10
	// modelSeed seeds model initialisation: a setting of the program, not
	// an input of the workload, so it does not follow --seed.
	modelSeed = 1
)

// spec describes a workload: its data, its tapes, and how they are driven.
type spec struct {
	name string
	kind dataset.Kind
	sz   sizes
	// transport is "" for the engine in-process, else "stream" or "json".
	transport string
	// clients is the number of requests in flight; batch the operations
	// per request.
	clients, batch int
	// workers is ShardOptions.Workers. The embed-* workloads set 1: with a
	// single caller the second vCPU is idle, the default's goroutine per
	// shard has to wake it for every kNN query, and whether that wake-up is
	// fast or slow flips between rounds (41 µs against 150 µs per query
	// measured), which no bound can gate. shard.knn_overhead_ns reports the
	// hand-off, measured with the default.
	workers int
	// mixed selects the embed-write tape: one pass per set-up over a tape
	// that grows the index, whose segments stand in for rounds. Its length
	// is fixed, not timed: the state it ends in (recall, bytes) must not
	// depend on how fast the machine is.
	mixed bool
}

var specs = []spec{
	{
		name: "embed-read", kind: dataset.Skewed, clients: 1, batch: 1, workers: 1,
		sz: sizes{n: 200_000, point: 20_000, window: 4_000, knn: 1_000, pairs: 2_000},
	},
	{
		name: "embed-write", kind: dataset.OSMLike, clients: 1, batch: 1, workers: 1, mixed: true,
		sz: sizes{n: 100_000, point: 4_000, window: 1_000, knn: 500, pairs: 1_000, segments: 20, segOps: 10_000},
	},
	{
		name: "serve-stream", kind: dataset.Skewed, clients: 4, batch: 1, transport: "stream",
		sz: sizes{n: 100_000, point: 6_000, window: 3_000, knn: 600, pairs: 1_500},
	},
	{
		name: "serve-json-batch", kind: dataset.Skewed, clients: 2, batch: 32, transport: "json",
		sz: sizes{n: 100_000, point: 32 * 120, window: 32 * 24, knn: 32 * 40, pairs: 32 * 40},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sized completes the spec for a run: the sample sizes and the smoke scale.
func (sp spec) sized(smoke bool) spec {
	sp.sz.recallW, sp.sz.recallK, sp.sz.exactEach = 2000, 1000, 100
	if smoke {
		sp.sz.n = 5000
		for _, f := range []*int{&sp.sz.point, &sp.sz.window, &sp.sz.knn, &sp.sz.pairs, &sp.sz.recallW, &sp.sz.recallK, &sp.sz.exactEach} {
			*f = (*f/20 + sp.batch - 1) / sp.batch * sp.batch
		}
		if sp.mixed {
			sp.sz.segments, sp.sz.segOps = 2, 400
		}
	}
	return sp
}

// rig is one set-up: the engine and, for the serve-* workloads, the server
// in front of it and the client connected to that.
type rig struct {
	eng  *rsmi.Sharded
	tg   target
	cl   *server.Client
	stop func() error
}

// buildEngine builds the engine every workload measures. workers is
// ShardOptions.Workers: 0, the default, fans a query out on one goroutine per
// shard.
func buildEngine(pts []geom.Point, workers int) *rsmi.Sharded {
	return rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: shards, Workers: workers, Index: rsmi.Options{Epochs: epochs, Seed: modelSeed}})
}

// setup generates the data, builds the index and, for serve-*, starts the
// server and dials every client connection; its duration is setup_s.
func (sp spec) setup(ctx context.Context, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	r := &rig{eng: buildEngine(dataset.Generate(sp.kind, sp.sz.n, dataSeed), sp.workers), stop: func() error { return nil }}
	served := tr.wrapEngine(r.eng)
	if sp.transport == "" {
		r.tg = tr.wrapTarget(engineTarget{served})
		return r, time.Since(start), nil
	}
	srv, addrs, wait, err := startServer(served)
	if err != nil {
		return nil, 0, err
	}
	if sp.transport == "stream" {
		r.cl = server.NewClient(addrs[1], server.WithTransport(server.TransportTCP), server.WithStreamConns(sp.clients/2))
		r.tg = clientTarget{r.cl, tr}
	} else {
		r.cl = server.NewClient(addrs[0])
		r.tg = batchTarget{r.cl, tr}
	}
	r.stop = func() error {
		r.cl.Close()
		return stopServer(srv, wait)
	}
	// One probe per client, all at once, opens every connection.
	var wg sync.WaitGroup
	errs := make([]error, sp.clients)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.cl.PointQuery(ctx, geom.Pt(0.5, 0.5))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("dial: %w", err), r.stop())
	}
	return r, time.Since(start), nil
}

// startServer serves eng on two loopback ports, HTTP and stream, and
// returns their addresses in that order. wait blocks until both accept
// loops have returned.
func startServer(eng rsmi.Engine) (srv *server.Server, addrs [2]string, wait func(), err error) {
	var ls [2]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			if i == 1 {
				ls[0].Close()
			}
			return nil, addrs, nil, err
		}
		addrs[i] = ls[i].Addr().String()
	}
	srv = server.New(server.Config{Engine: eng})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = srv.Serve(ls[0]) }()       // returns ErrServerClosed on Shutdown
	go func() { defer wg.Done(); _ = srv.ServeStream(ls[1]) }() // likewise
	return srv, addrs, wg.Wait, nil
}

func stopServer(srv *server.Server, wait func()) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	wait()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// procUsage is the process's consumption over the timed region.
type procUsage struct {
	cpuUS    float64
	mallocs  uint64
	gcCycles uint32
	heapSys  uint64
}

// measured is everything one run of a workload observed.
type measured struct {
	setups []float64
	rounds rounds
	// refNS is the run's reference: every time is reported as it would have
	// been had a reference look-up taken refNominalNS.
	refNS          float64
	windowRecall   float64
	knnRecall      float64
	bytesPerPoint  float64
	overflowBlocks int
	proc           procUsage
}

// runOpts says how long to measure and whether to trace.
type runOpts struct {
	// takes is the number of measuring set-ups that follow the checking one;
	// the rounds are divided among them.
	takes int
	// seconds is the time the rounds of all takes share; every take plays
	// at least minRounds.
	seconds   float64
	minRounds int
	// warm is the busy time before a take's first round, beyond one full
	// pass of every tape.
	warm time.Duration
	tr   *tracer
}

// run measures the workload: one set-up on which every answer is checked
// against the oracle and nothing is timed, then o.takes set-ups that are
// warmed up and timed. All of them count into setup_s. chk collects the
// verdict on every answer.
func (sp spec) run(ctx context.Context, tp *tapes, o runOpts, chk *checker) (*measured, error) {
	m := &measured{}
	plans := sp.plans(tp)
	mixedWant := make([]answer, len(tp.mixed))
	// One pair of timing buffers serves every pass: the longest is a class
	// tape or a segment of the mixed tape. play gives each client a stretch
	// of whole insert→delete groups, hence the slack.
	tm := newTimings(max(sp.sz.segOps, sp.sz.point, sp.sz.window, sp.sz.knn, 2*sp.sz.pairs) + 2*sp.clients)
	ref := newReference()
	var usage procMeter
	for take := 0; take <= o.takes; take++ {
		last := take == o.takes
		var base uint64
		if last {
			base = heapAfterGC()
		}
		// Every set-up starts from a collected heap, whatever the take
		// before it left behind.
		runtime.GC()
		endSetup := o.tr.phase("setup")
		r, took, err := sp.setup(ctx, o.tr)
		endSetup()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", take, err)
		}
		m.setups = append(m.setups, took.Seconds())
		blocks := r.eng.Stats().Blocks
		inproc := engineTarget{r.eng}

		// The checked pass plays the write pairs first and from one
		// goroutine: they allocate their overflow blocks once and in tape
		// order, so every later pass, on every take, meets the same
		// structure and the same live set. Take 0 holds every row against
		// the oracle and records the answers; the others reproduce them.
		endCheck := o.tr.phase("checked-pass")
		if take == 0 {
			or := newOracle(tp.data)
			for _, pl := range []*schedule{plans[cWrite], plans[cPoint], plans[cWindow], plans[cKNN]} {
				pl.checked(ctx, inproc, or, chk)
			}
			exactSample(ctx, r.eng, tp, chk)
			if sp.mixed {
				sp.playMixed(ctx, inproc, tp.mixed, mixedWant, or, tm, chk, nil)
			}
			endCheck()
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("shut-down %d: %w", take, err)
			}
			continue
		}
		for _, pl := range []*schedule{plans[cWrite], plans[cPoint], plans[cWindow], plans[cKNN]} {
			pl.play(ctx, inproc, 1, tm, chk)
		}
		endCheck()
		tm.ref = ref

		endWarm := o.tr.phase("warm-up")
		for start := time.Now(); ; {
			for _, pl := range plans {
				pl.play(ctx, r.tg, sp.clients, tm, chk)
			}
			if time.Since(start) >= o.warm {
				break
			}
		}
		endWarm()

		endTimed := o.tr.phase("timed")
		usage.start()
		if sp.mixed {
			m.rounds = append(m.rounds, sp.playMixed(ctx, r.tg, tp.mixed, mixedWant, nil, tm, chk, o.tr)...)
		} else {
			budget := time.Duration(o.seconds / float64(o.takes) * float64(time.Second))
			for start, n := time.Now(), 0; n < o.minRounds || time.Since(start) < budget; n++ {
				m.rounds = append(m.rounds, sp.playRound(ctx, r.tg, plans, tm, chk, o.tr, len(m.rounds)))
			}
		}
		usage.stop()
		endTimed()

		if last {
			m.overflowBlocks = r.eng.Stats().Blocks - blocks
			if m.windowRecall, m.knnRecall, err = recall(ctx, r.eng, tp); err != nil {
				return nil, errors.Join(err, r.stop())
			}
		}
		if err := r.stop(); err != nil {
			return nil, fmt.Errorf("shut-down %d: %w", take, err)
		}
		if last {
			points := r.eng.Len()
			r.tg, r.cl = nil, nil
			m.bytesPerPoint = float64(heapAfterGC()-base) / float64(points)
			runtime.KeepAlive(r.eng)
		}
	}
	m.proc = usage.total
	m.refNS = ref.ns()
	return m, nil
}

// plans cuts the class tapes into requests.
func (sp spec) plans(tp *tapes) [numClasses]*schedule {
	var ps [numClasses]*schedule
	for c := range ps {
		ops := tp.class[c]
		if sp.mixed && class(c) == cWrite {
			// The mixed tape does this workload's writing, on an index no
			// pair has touched; the pair tape is for the ledger alone.
			ops = nil
		}
		ps[c] = newSchedule(class(c), ops, sp.batch)
	}
	return ps
}

// checked is the checked pass over one class: every operation runs
// in-process, every row is held against the oracle, and the answer becomes
// the one all later executions must reproduce.
func (pl *schedule) checked(ctx context.Context, tg engineTarget, or *oracle, chk *checker) {
	var buf []geom.Point
	var out [1]answer
	for i, o := range pl.ops {
		_, err := tg.do(ctx, &buf, pl.ops[i:i+1], out[:])
		if err == nil {
			err = or.check(o, buf, out[0].n == 1)
		}
		chk.verdict(pl.cl, err)
		pl.want[i] = out[0]
	}
}

// playRound is one timed round: every class's tape once, in class order,
// with a burst of the reference before, between and after. Garbage from the
// round before is collected first, outside any timed region.
func (sp spec) playRound(ctx context.Context, tg target, plans [numClasses]*schedule, tm *timings, chk *checker, tr *tracer, id int) round {
	runtime.GC()
	endRound := tr.round(id)
	defer endRound()
	var rd round
	tm.ref.burst()
	for c, pl := range plans {
		if len(pl.ops) == 0 {
			continue
		}
		secs := pl.play(ctx, tg, sp.clients, tm, chk)
		rd.add(class(c), tm.lats[:pl.requests()], len(pl.ops), secs)
		tm.ref.burst()
	}
	return rd
}

// add folds one class's pass into the round: its latencies, its operations
// and the seconds they took (see typicalGap).
func (rd *round) add(c class, lats []int64, ops int, secs float64) {
	rd.secs += secs
	rd.ops += ops
	rd.samples[c] = len(lats)
	rd.p50[c] = float64(quantile(lats, 0.50))
	rd.p99[c] = float64(quantile(lats, 0.99))
}

// playMixed plays the embed-write tape once; each segment is reported as a
// round. With an oracle (the checking take) every answer is checked in full
// and recorded in want; without, it is compared with want.
func (sp spec) playMixed(ctx context.Context, tg target, tape []op, want []answer, or *oracle, tm *timings, chk *checker, tr *tracer) rounds {
	var rs rounds
	var buf []geom.Point
	var out [1]answer
	for seg := 0; seg < sp.sz.segments; seg++ {
		runtime.GC()
		tm.ref.burst()
		endRound := tr.round(seg)
		lo, hi := seg*sp.sz.segOps, (seg+1)*sp.sz.segOps
		lats, ends := tm.lats[:hi-lo], tm.ends[:hi-lo]
		start := time.Now()
		for i := lo; i < hi; i++ {
			o := tape[i]
			ns, err := tg.do(ctx, &buf, tape[i:i+1], out[:])
			switch {
			case err != nil:
				chk.fail(o.kind.class(), "%v: %v", o, err)
			case or != nil:
				chk.verdict(o.kind.class(), or.check(o, buf, out[0].n == 1))
				want[i] = out[0]
			default:
				chk.expect(o, out[0], want[i])
			}
			lats[i-lo], ends[i-lo] = ns, int64(time.Since(start))
		}
		endRound()
		rd := round{ops: hi - lo, secs: float64(hi-lo) * typicalGap(ends) / 1e9}
		var byClass [numClasses][]int64
		for i := lo; i < hi; i++ {
			c := tape[i].kind.class()
			byClass[c] = append(byClass[c], lats[i-lo])
		}
		for c, ls := range byClass {
			rd.samples[c] = len(ls)
			rd.p50[c] = float64(quantile(ls, 0.50))
			rd.p99[c] = float64(quantile(ls, 0.99))
		}
		rs = append(rs, rd)
	}
	tm.ref.burst()
	return rs
}

// exactSample holds the exact variants against a brute-force scan.
func exactSample(ctx context.Context, eng rsmi.Engine, tp *tapes, chk *checker) {
	for _, r := range tp.exactW {
		got, err := eng.ExactWindowContext(ctx, r)
		if err == nil && !sameSet(got, bruteWindow(tp.data, r)) {
			err = fmt.Errorf("ExactWindow %v differs from a scan of the data", r)
		}
		chk.verdict(cWindow, err)
	}
	for _, q := range tp.exactK {
		got, err := eng.ExactKNNContext(ctx, q, knnK)
		if err == nil && !sameDistances(q, got, bruteKNN(tp.data, q, knnK)) {
			err = fmt.Errorf("ExactKNN %v differs from a scan of the data", q)
		}
		chk.verdict(cKNN, err)
	}
}

// recall runs the fixed samples on the engine as the timed region left it:
// window recall is Σ|approximate| ÷ Σ|exact| (no row is wrong or repeated,
// so sizes suffice), kNN recall the mean share of the true k nearest found.
func recall(ctx context.Context, eng rsmi.Engine, tp *tapes) (window, knn float64, err error) {
	var got, want int
	for _, r := range tp.recallW {
		a, err := eng.WindowQueryContext(ctx, r)
		if err != nil {
			return 0, 0, err
		}
		e, err := eng.ExactWindowContext(ctx, r)
		if err != nil {
			return 0, 0, err
		}
		got, want = got+len(a), want+len(e)
	}
	var sum float64
	for _, q := range tp.recallK {
		a, err := eng.KNNContext(ctx, q, knnK)
		if err != nil {
			return 0, 0, err
		}
		e, err := eng.ExactKNNContext(ctx, q, knnK)
		if err != nil {
			return 0, 0, err
		}
		sum += index.KNNRecall(a, e, q)
	}
	return float64(got) / float64(max(want, 1)), sum / float64(max(len(tp.recallK), 1)), nil
}
