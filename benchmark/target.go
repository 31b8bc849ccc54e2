package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/server"
)

// target answers requests: the engine in-process, or a client over one of
// the server's transports. do executes one request of len(ops) operations,
// stores one answer per operation in out, and returns how long the request
// took; fingerprinting the rows is outside that time. buf is the calling
// goroutine's scratch space; an engineTarget leaves the rows of the last
// operation in it.
type target interface {
	do(ctx context.Context, buf *[]geom.Point, ops []op, out []answer) (ns int64, err error)
}

// execEngine runs one operation on an engine and returns its rows (window,
// kNN) or its flag (probe, insert, delete). Rows are appended to dst[:0].
func execEngine(ctx context.Context, eng rsmi.Engine, o op, dst []geom.Point) ([]geom.Point, bool, error) {
	switch o.kind {
	case opPoint:
		found, err := eng.PointQueryContext(ctx, o.p)
		return nil, found, err
	case opWindow:
		pts, err := eng.WindowQueryAppend(ctx, dst[:0], o.r)
		return pts, false, err
	case opKNN:
		pts, err := eng.KNNContext(ctx, o.p, knnK)
		return pts, false, err
	case opInsert:
		err := eng.InsertContext(ctx, o.p)
		return nil, err == nil, err
	case opDelete:
		deleted, err := eng.DeleteContext(ctx, o.p)
		return nil, deleted, err
	}
	return nil, false, fmt.Errorf("unknown operation kind %d", o.kind)
}

func answerFor(o op, pts []geom.Point, flag bool) answer {
	if o.kind == opWindow || o.kind == opKNN {
		return answerOf(pts)
	}
	return answerFlag(flag)
}

// engineTarget drives the engine in-process. A request of several
// operations is a loop over them; the time is that of the engine calls
// alone.
type engineTarget struct{ eng rsmi.Engine }

func (t engineTarget) do(ctx context.Context, buf *[]geom.Point, ops []op, out []answer) (int64, error) {
	var ns int64
	for i, o := range ops {
		start := time.Now()
		pts, flag, err := execEngine(ctx, t.eng, o, *buf)
		ns += int64(time.Since(start))
		if err != nil {
			return ns, err
		}
		// Leave the rows in buf, where the checked pass reads them.
		switch o.kind {
		case opWindow:
			*buf = pts
		case opKNN:
			*buf = append((*buf)[:0], pts...)
		}
		out[i] = answerFor(o, pts, flag)
	}
	return ns, nil
}

// clientTarget sends one operation per request through a server.Client.
// With a tracer it opens the request's span itself and asks the server to
// EXPLAIN, so the server's stage spans can be recorded under it.
type clientTarget struct {
	cl *server.Client
	tr *tracer
}

func (t clientTarget) do(ctx context.Context, _ *[]geom.Point, ops []op, out []answer) (int64, error) {
	o := ops[0]
	var (
		pts  []geom.Point
		flag bool
		err  error
		tj   *server.TraceJSON
		opts []server.QueryOpt
	)
	if t.tr != nil {
		opts = []server.QueryOpt{server.WithExplain(&tj)}
	}
	end := t.tr.request(o.kind.class(), &tj)
	start := time.Now()
	switch o.kind {
	case opPoint:
		flag, err = t.cl.PointQuery(ctx, o.p, opts...)
	case opWindow:
		pts, err = t.cl.WindowQuery(ctx, o.r, opts...)
	case opKNN:
		pts, err = t.cl.KNN(ctx, o.p, knnK, opts...)
	case opInsert:
		err = t.cl.Insert(ctx, o.p, opts...)
		flag = err == nil
	case opDelete:
		flag, err = t.cl.Delete(ctx, o.p, opts...)
	}
	ns := int64(time.Since(start))
	end()
	if err != nil {
		return ns, err
	}
	out[0] = answerFor(o, pts, flag)
	return ns, nil
}

func batchOp(o op) server.BatchOp {
	switch o.kind {
	case opWindow:
		return server.BatchOp{Op: server.OpWindow, MinX: o.r.MinX, MinY: o.r.MinY, MaxX: o.r.MaxX, MaxY: o.r.MaxY}
	case opKNN:
		return server.BatchOp{Op: server.OpKNN, X: o.p.X, Y: o.p.Y, K: knnK}
	case opInsert:
		return server.BatchOp{Op: server.OpInsert, X: o.p.X, Y: o.p.Y}
	case opDelete:
		return server.BatchOp{Op: server.OpDelete, X: o.p.X, Y: o.p.Y}
	}
	return server.BatchOp{Op: server.OpPoint, X: o.p.X, Y: o.p.Y}
}

func batchAnswer(o op, r server.BatchResult) answer {
	switch o.kind {
	case opWindow, opKNN:
		a := answer{n: int32(len(r.Points))}
		for _, p := range r.Points {
			a.fp += fingerprint(p.X, p.Y)
		}
		return a
	case opInsert:
		return answerFlag(r.OK)
	case opDelete:
		return answerFlag(r.Deleted)
	}
	return answerFlag(r.Found)
}

// batchTarget sends every request as one /v1/batch call; its tracer works
// as clientTarget's does.
type batchTarget struct {
	cl *server.Client
	tr *tracer
}

func (t batchTarget) do(ctx context.Context, _ *[]geom.Point, ops []op, out []answer) (int64, error) {
	bops := make([]server.BatchOp, len(ops))
	for i, o := range ops {
		bops[i] = batchOp(o)
	}
	var tj *server.TraceJSON
	var opts []server.QueryOpt
	if t.tr != nil {
		opts = []server.QueryOpt{server.WithExplain(&tj)}
	}
	end := t.tr.request(ops[0].kind.class(), &tj)
	start := time.Now()
	res, err := t.cl.Batch(ctx, bops, opts...)
	ns := int64(time.Since(start))
	end()
	if err != nil {
		return ns, err
	}
	if len(res) != len(ops) {
		return ns, fmt.Errorf("batch of %d operations answered with %d results", len(ops), len(res))
	}
	for i, o := range ops {
		out[i] = batchAnswer(o, res[i])
	}
	return ns, nil
}

// schedule is one class's tape cut into requests. unit consecutive requests
// form a group that a single client sends in order: an insert and the delete
// that undoes it must not be reordered or overlap.
type schedule struct {
	cl    class
	ops   []op
	batch int
	unit  int
	// want is the checked pass's answer per operation.
	want []answer
}

func (pl *schedule) requests() int { return (len(pl.ops) + pl.batch - 1) / pl.batch }

func (pl *schedule) request(i int) (lo, hi int) {
	lo, hi = i*pl.batch, (i+1)*pl.batch
	if hi > len(pl.ops) {
		hi = len(pl.ops)
	}
	return
}

// newSchedule cuts a class tape into requests of batch operations. The write
// tape arrives as insert→delete pairs; it is regrouped so a request of
// inserts is followed by the request that deletes the same points.
func newSchedule(cl class, ops []op, batch int) *schedule {
	pl := &schedule{cl: cl, ops: ops, batch: batch, unit: 1}
	if cl == cWrite {
		pl.unit = 2
		pl.ops = make([]op, 0, len(ops))
		for lo := 0; lo < len(ops); lo += 2 * batch {
			hi := lo + 2*batch
			if hi > len(ops) {
				hi = len(ops)
			}
			for i := lo; i < hi; i += 2 {
				pl.ops = append(pl.ops, ops[i])
			}
			for i := lo + 1; i < hi; i += 2 {
				pl.ops = append(pl.ops, ops[i])
			}
		}
	}
	pl.want = make([]answer, len(pl.ops))
	return pl
}

// play sends every request of the plan through tg from clients goroutines,
// each with one request in flight, and waits for all of them: a closed loop
// with no pause between a reply and the next request. tm receives one
// latency and one completion time per request. Every answer is compared
// with the checked pass. The return value is the seconds the pass took:
// its requests ÷ the sum of the clients' rates, each client's rate being
// one request per typicalGap.
func (pl *schedule) play(ctx context.Context, tg target, clients int, tm *timings, chk *checker) float64 {
	groups := (pl.requests() + pl.unit - 1) / pl.unit
	// Client g sends groups g, g+clients, ...; its completion times go to
	// its own stretch of tm.ends, in order.
	share := (groups + clients - 1) / clients * pl.unit
	rates := make([]float64, clients)
	start := time.Now()
	run := func(g int) {
		var buf []geom.Point
		out := make([]answer, pl.batch)
		ends := tm.ends[g*share : g*share : (g+1)*share]
		for grp := g; grp < groups; grp += clients {
			for i := grp * pl.unit; i < (grp+1)*pl.unit && i < pl.requests(); i++ {
				lo, hi := pl.request(i)
				ns, err := tg.do(ctx, &buf, pl.ops[lo:hi], out)
				for j := lo; j < hi; j++ {
					if err != nil {
						chk.fail(pl.cl, "%v: %v", pl.ops[j], err)
					} else {
						chk.expect(pl.ops[j], out[j-lo], pl.want[j])
					}
				}
				tm.lats[i] = ns
				ends = append(ends, int64(time.Since(start)))
			}
		}
		if gap := typicalGap(ends); gap > 0 {
			rates[g] = 1e9 / gap
		}
	}
	if clients == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(g)
			}()
		}
		wg.Wait()
	}
	var rate float64
	for _, r := range rates {
		rate += r
	}
	if rate == 0 {
		return 0
	}
	return float64(pl.requests()) / rate
}
