package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/mlp"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/server"
	"rsmi/internal/store"
)

// The layer ledger: each layer of the repository timed on its own, from
// outside, by calling its public functions on the workload's data and class
// tapes. Nothing here is gated; README.md says which end-to-end cell each
// number should move.

// ledgerRounds is how often each ledger cell is measured; its value is the
// median across them, like the end-to-end cells.
const ledgerRounds = 5

// ledger caps, so the traced run of the largest workload stays short.
const (
	ledgerPoints  = 20_000
	ledgerWindows = 2_000
	ledgerKNN     = 400
	ledgerPairs   = 2_000
)

type ledger struct {
	ctx context.Context
	chk *checker
	out map[string]metric
}

func (l *ledger) put(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

func head(ops []op, n int) []op { return ops[:min(n, len(ops))] }

// cell is what timing one class tape on one engine yields.
type cell struct {
	ns, allocs, blocks, rows float64
}

// timeEngine plays ops on eng ledgerRounds times from this goroutine. ns is
// the median across rounds of the round's p50; allocations and block reads
// are exact counts per operation from the last round.
func (l *ledger) timeEngine(eng rsmi.Engine, ops []op) cell {
	var c cell
	tg := engineTarget{eng}
	lats := make([]int64, len(ops))
	var p50s []float64
	var buf []geom.Point
	var out [1]answer
	for r := 0; r < ledgerRounds; r++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blocks := eng.Accesses()
		rows := 0
		for i, o := range ops {
			ns, err := tg.do(l.ctx, &buf, ops[i:i+1], out[:])
			lats[i] = ns
			rows += int(out[0].n)
			if err == nil && o.kind == opWindow {
				for _, p := range buf {
					if !o.r.Contains(p) {
						err = fmt.Errorf("%v: row %v lies outside", o, p)
					}
				}
			}
			if err == nil && (o.kind == opPoint || o.kind == opDelete) && (out[0].n == 1) != o.want {
				err = fmt.Errorf("%v: answered %v", o, out[0].n == 1)
			}
			l.chk.verdict(o.kind.class(), err)
		}
		runtime.ReadMemStats(&after)
		n := float64(len(ops))
		c.allocs = float64(after.Mallocs-before.Mallocs) / n
		c.blocks = float64(eng.Accesses()-blocks) / n
		c.rows = float64(rows) / n
		p50s = append(p50s, float64(quantile(lats, 0.5)))
	}
	c.ns = median(p50s)
	return c
}

// perCall times fn over n calls in one go, ledgerRounds times, for calls
// too short to time one by one; the result is nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	var vs []float64
	for r := 0; r < ledgerRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		vs = append(vs, float64(time.Since(start))/float64(n))
	}
	return median(vs)
}

var sink float64

// mlp trains and runs one leaf-shaped network on the first 10k points of the
// curve order: a spatially contiguous run, as a leaf model's points are.
func (l *ledger) mlp(sorted []geom.Point) {
	leaf := sorted[:min(10_000, len(sorted))]
	blocks := (len(leaf) + store.DefaultBlockCapacity - 1) / store.DefaultBlockCapacity
	cfg := mlp.Config{Inputs: 2, Hidden: mlp.HiddenFor(2, blocks), Epochs: epochs, Seed: modelSeed}
	norm := geom.BoundingRect(leaf)
	xs := make([]float64, 0, 2*len(leaf))
	ys := make([]float64, 0, len(leaf))
	for i, p := range leaf {
		xs = append(xs, (p.X-norm.MinX)/max(norm.Width(), 1e-12), (p.Y-norm.MinY)/max(norm.Height(), 1e-12))
		ys = append(ys, float64(i/store.DefaultBlockCapacity)/float64(max(blocks-1, 1)))
	}
	net := mlp.New(cfg)
	start := time.Now()
	net.Train(cfg, xs, ys)
	l.put("mlp.train_s_per_10k", time.Since(start).Seconds()*10_000/float64(len(leaf)), "s")
	l.put("mlp.predict_ns", perCall(len(leaf), func(i int) { sink += net.Predict(xs[2*i : 2*i+2]) }), "ns")
}

func (l *ledger) store(sorted []geom.Point) {
	m := store.NewManager(0)
	m.Pack(sorted)
	l.put("store.scan_ns_per_block", perCall(m.NumBlocks(), func(i int) {
		m.Read(i).Points(func(p geom.Point) { sink += p.X })
	}), "ns")
}

// writes plays an insert→delete pair tape and returns the p50 of the
// inserts and of the deletes, each a median across rounds.
func (l *ledger) writes(eng rsmi.Engine, pairs []op) (insertNS, deleteNS float64) {
	var ins, del []float64
	tg := engineTarget{eng}
	var buf []geom.Point
	var out [1]answer
	for r := 0; r < ledgerRounds; r++ {
		var li, ld []int64
		for i, o := range pairs {
			ns, err := tg.do(l.ctx, &buf, pairs[i:i+1], out[:])
			if err == nil && out[0].n != 1 {
				err = fmt.Errorf("%v: refused", o)
			}
			l.chk.verdict(cWrite, err)
			if o.kind == opInsert {
				li = append(li, ns)
			} else {
				ld = append(ld, ns)
			}
		}
		ins, del = append(ins, float64(quantile(li, 0.5))), append(del, float64(quantile(ld, 0.5)))
	}
	return median(ins), median(del)
}

// engines measures core (a bare rsmi.Index), shard (rsmi.Sharded minus the
// bare index on the same tape: a subtraction, not a span) and plan.
func (l *ledger) engines(tp *tapes) (*rsmi.Sharded, error) {
	points, windows := head(tp.class[cPoint], ledgerPoints), head(tp.class[cWindow], ledgerWindows)
	knns, pairs := head(tp.class[cKNN], ledgerKNN), head(tp.class[cWrite], 2*ledgerPairs)

	start := time.Now()
	bare := rsmi.New(append([]geom.Point(nil), tp.data...), rsmi.Options{Epochs: epochs, Seed: modelSeed})
	l.put("core.build_s", time.Since(start).Seconds(), "s")
	st := bare.Stats()
	l.put("core.err_blocks", float64(st.ErrLow+st.ErrHigh), "count")
	l.put("core.models", float64(st.Models), "count")
	l.put("core.height", float64(st.Height), "count")

	// Writes first, as in the workloads: later cells see the overflow blocks.
	ins, del := l.writes(bare, pairs)
	l.put("core.insert_ns", ins, "ns")
	l.put("core.delete_ns", del, "ns")
	cp, cw, ck := l.timeEngine(bare, points), l.timeEngine(bare, windows), l.timeEngine(bare, knns)
	for _, c := range []struct {
		name string
		cell cell
	}{{"point", cp}, {"window", cw}, {"knn", ck}} {
		l.put("core."+c.name+"_ns", c.cell.ns, "ns")
		l.put("core."+c.name+"_allocs", c.cell.allocs, "count")
		l.put("core."+c.name+"_blocks", c.cell.blocks, "count")
	}
	l.put("core.window_scan_ratio", cw.rows/max(cw.blocks*store.DefaultBlockCapacity, 1), "ratio")
	var exact []float64
	for r := 0; r < ledgerRounds; r++ {
		lats := make([]int64, len(windows))
		for i, o := range windows {
			start := time.Now()
			_, err := bare.ExactWindowContext(l.ctx, o.r)
			lats[i] = int64(time.Since(start))
			l.chk.verdict(cWindow, err)
		}
		exact = append(exact, float64(quantile(lats, 0.5)))
	}
	l.put("core.exact_window_ns", median(exact), "ns")

	sh := buildEngine(append([]geom.Point(nil), tp.data...), 0)
	l.put("store.bytes_per_point", float64(sh.Stats().SizeBytes)/float64(len(tp.data)), "B")
	sins, _ := l.writes(sh, pairs)
	l.put("shard.insert_ns", sins, "ns")
	sp, sw, sk := l.timeEngine(sh, points), l.timeEngine(sh, windows), l.timeEngine(sh, knns)
	l.put("shard.point_overhead_ns", sp.ns-cp.ns, "ns")
	l.put("shard.window_overhead_ns", sw.ns-cw.ns, "ns")
	l.put("shard.knn_overhead_ns", sk.ns-ck.ns, "ns")
	var batch []float64
	rects := make([]geom.Rect, len(windows))
	for i, o := range windows {
		rects[i] = o.r
	}
	for r := 0; r < ledgerRounds; r++ {
		var lats []int64
		for lo := 0; lo+32 <= len(rects); lo += 32 {
			start := time.Now()
			_, err := sh.BatchWindowQueryContext(l.ctx, rects[lo:lo+32])
			lats = append(lats, int64(time.Since(start))/32)
			l.chk.verdict(cWindow, err)
		}
		batch = append(batch, float64(quantile(lats, 0.5)))
	}
	l.put("shard.batch32_window_ns_per_op", median(batch), "ns")
	visited := 0.0
	for _, o := range windows {
		tr := obs.StartTrace("window", "ledger")
		_, err := sh.WindowQueryContext(obs.With(l.ctx, tr), o.r)
		l.chk.verdict(cWindow, err)
		visited += float64(tr.Shards())
		tr.Release()
	}
	l.put("shard.window_shards_visited", visited/float64(max(len(windows), 1)), "count")

	stats := plan.NewStats(tp.data)
	if err := stats.Calibrate(l.ctx, sh); err != nil {
		return nil, fmt.Errorf("planner calibration: %w", err)
	}
	l.put("plan.choose_ns", perCall(len(windows), func(i int) {
		sink += stats.Choose(plan.Query{Kind: plan.KindWindow, Window: windows[i].r}).EstCostUS
	}), "ns")
	routed, err := plan.NewMultiEngine(stats, sh)
	if err != nil {
		return nil, err
	}
	l.put("plan.routed_window_overhead_ns", l.timeEngine(routed, windows).ns-sw.ns, "ns")

	// Rebuilds last: they replace what the cells above measured.
	start = time.Now()
	if err := bare.RebuildContext(l.ctx); err != nil {
		return nil, err
	}
	l.put("core.rebuild_s", time.Since(start).Seconds(), "s")
	start = time.Now()
	if err := sh.RebuildContext(l.ctx); err != nil {
		return nil, err
	}
	l.put("shard.rebuild_s", time.Since(start).Seconds(), "s")
	return sh, nil
}

// respRecorder is an in-memory http.ResponseWriter that is reset, not
// reallocated, between requests.
type respRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *respRecorder) Header() http.Header         { return r.header }
func (r *respRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *respRecorder) WriteHeader(code int)        { r.code = code }
func (r *respRecorder) reset() {
	clear(r.header)
	r.body.Reset()
	r.code = http.StatusOK
}

// request is a prepared HTTP request: everything but the body reader, which
// a handler consumes.
type request struct {
	path, ctype, accept string
	body                []byte
}

func jsonRequest(path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request structs always marshal
	}
	return request{path: path, ctype: "application/json", body: body}
}

// timeHandler calls the handler directly with each request, no socket, and
// returns the median across rounds of the round's p50 in µs and the mean
// response size in bytes.
func (l *ledger) timeHandler(h http.Handler, cl class, reqs []request) (us, bytesPerResp float64) {
	rec := &respRecorder{header: http.Header{}}
	var p50s []float64
	size := 0
	for r := 0; r < ledgerRounds; r++ {
		lats := make([]int64, len(reqs))
		size = 0
		for i, rq := range reqs {
			hr, err := http.NewRequestWithContext(l.ctx, http.MethodPost, rq.path, bytes.NewReader(rq.body))
			if err != nil {
				l.chk.fail(cl, "%v", err)
				continue
			}
			hr.Header.Set("Content-Type", rq.ctype)
			if rq.accept != "" {
				hr.Header.Set("Accept", rq.accept)
			}
			rec.reset()
			start := time.Now()
			h.ServeHTTP(rec, hr)
			lats[i] = int64(time.Since(start))
			size += rec.body.Len()
			if rec.code != http.StatusOK {
				l.chk.fail(cl, "%s answered %d: %s", rq.path, rec.code, rec.body.String())
			} else {
				l.chk.pass(cl)
			}
		}
		p50s = append(p50s, float64(quantile(lats, 0.5))/1e3)
	}
	return median(p50s), float64(size) / float64(max(len(reqs), 1))
}

// capture is an HTTP front that keeps the last request it saw and passes it
// on: the way to obtain an rsmibin request frame, whose encoder is not
// exported, from outside the server package.
type capture struct {
	next http.Handler
	mu   sync.Mutex
	last request
}

func (c *capture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.last = request{path: r.URL.Path, ctype: r.Header.Get("Content-Type"), accept: r.Header.Get("Accept"), body: body}
	c.mu.Unlock()
	r.Body = io.NopCloser(bytes.NewReader(body))
	c.next.ServeHTTP(w, r)
}

// binaryBatches returns the rsmibin /v1/batch request for every batch, by
// sending each once through a capturing front.
func (l *ledger) binaryBatches(h http.Handler, batches [][]server.BatchOp) ([]request, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	front := &capture{next: h}
	hs := &http.Server{Handler: front}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }() // returns ErrServerClosed on Close
	cl := server.NewClient(ln.Addr().String(), server.WithProto(server.ProtoBinary))
	var reqs []request
	for _, b := range batches {
		if _, err = cl.Batch(l.ctx, b); err != nil {
			break
		}
		reqs = append(reqs, front.last)
	}
	cl.Close()
	cerr := hs.Close()
	<-done
	if err == nil {
		err = cerr
	}
	return reqs, err
}

// stageNames are the server's own stage spans, as EXPLAIN reports them.
var stageNames = []string{"admission", "decode", "coalesce", "execute", "encode"}

// explained plays point probes through cl with EXPLAIN on, clients in
// flight, and returns per request the client-side latency and the server's
// stage spans, all in µs.
func (l *ledger) explained(cl *server.Client, ops []op, clients int) (lat []float64, stages map[string][]float64) {
	type sample struct {
		lat    float64
		stages []server.TraceStageJSON
	}
	samples := make([]sample, len(ops))
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(ops); i += clients {
				var tj *server.TraceJSON
				start := time.Now()
				found, err := cl.PointQuery(l.ctx, ops[i].p, server.WithExplain(&tj))
				samples[i].lat = float64(time.Since(start)) / 1e3
				switch {
				case err != nil:
					l.chk.fail(cPoint, "%v: %v", ops[i], err)
				case found != ops[i].want || tj == nil:
					l.chk.fail(cPoint, "%v: answered %v, trace %v", ops[i], found, tj != nil)
				default:
					l.chk.pass(cPoint)
					samples[i].stages = tj.Stages
				}
			}
		}()
	}
	wg.Wait()
	stages = map[string][]float64{}
	for _, s := range samples {
		if s.stages == nil {
			continue
		}
		lat = append(lat, s.lat)
		for _, st := range s.stages {
			stages[st.Stage] = append(stages[st.Stage], st.Us)
		}
	}
	return lat, stages
}

// serving measures the server, wire and transport layers around eng.
func (l *ledger) serving(eng rsmi.Engine, tp *tapes) error {
	points, windows := head(tp.class[cPoint], ledgerPoints/4), head(tp.class[cWindow], ledgerWindows/2)
	knns, pairs := head(tp.class[cKNN], ledgerKNN), head(tp.class[cWrite], ledgerPairs)
	srv, addrs, wait, err := startServer(eng)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopServer(srv, wait); err == nil {
			err = serr
		}
	}()
	h := srv.Handler()

	single := func(ops []op) []request {
		reqs := make([]request, len(ops))
		for i, o := range ops {
			switch o.kind {
			case opWindow:
				reqs[i] = jsonRequest("/v1/window", server.RectJSON{MinX: o.r.MinX, MinY: o.r.MinY, MaxX: o.r.MaxX, MaxY: o.r.MaxY})
			case opKNN:
				reqs[i] = jsonRequest("/v1/knn", server.KNNJSON{X: o.p.X, Y: o.p.Y, K: knnK})
			case opInsert:
				reqs[i] = jsonRequest("/v1/insert", server.PointJSON{X: o.p.X, Y: o.p.Y})
			case opDelete:
				reqs[i] = jsonRequest("/v1/delete", server.PointJSON{X: o.p.X, Y: o.p.Y})
			default:
				reqs[i] = jsonRequest("/v1/point", server.PointJSON{X: o.p.X, Y: o.p.Y})
			}
		}
		return reqs
	}
	for _, c := range []struct {
		name string
		cl   class
		ops  []op
	}{{"point", cPoint, points}, {"window", cWindow, windows}, {"knn", cKNN, knns}, {"write", cWrite, pairs}} {
		us, _ := l.timeHandler(h, c.cl, single(c.ops))
		l.put("server.handler_"+c.name+"_us", us, "us")
	}

	var batches [][]server.BatchOp
	var jsonBatches []request
	for lo := 0; lo+32 <= len(windows); lo += 32 {
		b := make([]server.BatchOp, 32)
		for i, o := range windows[lo : lo+32] {
			b[i] = batchOp(o)
		}
		batches = append(batches, b)
		jsonBatches = append(jsonBatches, jsonRequest("/v1/batch", server.BatchRequest{Ops: b}))
	}
	binBatches, err := l.binaryBatches(h, batches)
	if err != nil {
		return fmt.Errorf("capturing rsmibin requests: %w", err)
	}
	jsonUS, jsonBytes := l.timeHandler(h, cWindow, jsonBatches)
	binUS, binBytes := l.timeHandler(h, cWindow, binBatches)
	l.put("server.handler_batch32_json_us", jsonUS, "us")
	l.put("server.handler_batch32_bin_us", binUS, "us")
	l.put("wire.json_bytes_per_window_op", jsonBytes/32, "B")
	l.put("wire.bin_bytes_per_window_op", binBytes/32, "B")
	l.put("wire.json_vs_bin_batch32_ratio", jsonUS/max(binUS, 1e-9), "ratio")

	// Over real sockets, with EXPLAIN on every request: the server's stage
	// spans, and what the client waited beyond them.
	const inFlight = 4
	stream := server.NewClient(addrs[1], server.WithTransport(server.TransportTCP), server.WithStreamConns(inFlight/2))
	defer stream.Close()
	httpJSON := server.NewClient(addrs[0])
	defer httpJSON.Close()
	l.explained(stream, points, inFlight) // dials and warms
	lat, stages := l.explained(stream, points, inFlight)
	beyond := median(lat)
	for _, name := range stageNames {
		us := median(stages[name])
		l.put("server."+name+"_us", us, "us")
		beyond -= us
	}
	l.put("transport.stream_overhead_us", beyond, "us")
	l.explained(httpJSON, points, inFlight)
	lat, stages = l.explained(httpJSON, points, inFlight)
	beyond = median(lat)
	for _, name := range stageNames {
		beyond -= median(stages[name])
	}
	l.put("transport.http_overhead_us", beyond, "us")

	httpBin := server.NewClient(addrs[0], server.WithProto(server.ProtoBinary))
	defer httpBin.Close()
	var p50s []float64
	for r := 0; r < ledgerRounds; r++ {
		var lats []int64
		for _, b := range batches {
			start := time.Now()
			res, err := httpBin.Batch(l.ctx, b)
			lats = append(lats, int64(time.Since(start)))
			if err == nil && len(res) != len(b) {
				err = fmt.Errorf("batch of %d answered with %d results", len(b), len(res))
			}
			l.chk.verdict(cWindow, err)
		}
		p50s = append(p50s, float64(quantile(lats, 0.5))/1e3)
	}
	l.put("transport.httpbin_batch32_window_us", median(p50s), "us")

	st, err := httpJSON.Stats()
	if err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	served := int64(0)
	for _, o := range st.Ops {
		served += o.Count
	}
	l.put("server.coalesce_mean_batch", st.Coalesce.MeanSize, "count")
	l.put("server.shed_frac", float64(st.Shed)/float64(max(served+st.Shed, 1)), "ratio")
	return err
}

// runLedger measures every layer on the workload's data.
func runLedger(ctx context.Context, tp *tapes, chk *checker) (map[string]metric, error) {
	l := &ledger{ctx: ctx, chk: chk, out: map[string]metric{}}
	sorted := curveSorted(tp.data)
	l.mlp(sorted)
	l.store(sorted)
	sh, err := l.engines(tp)
	if err != nil {
		return nil, err
	}
	if err := l.serving(sh, tp); err != nil {
		return nil, err
	}
	return l.out, nil
}
