package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/shard"
	"rsmi/internal/sqlfe"
)

// maxBodyBytes bounds single-op request bodies; batch bodies get
// maxBatchBodyBytes.
const (
	maxBodyBytes      = 4 << 10
	maxBatchBodyBytes = 8 << 20
	// maxBatchOps bounds the operations one /v1/batch request may carry.
	maxBatchOps = 16384
)

// admitSlot acquires an in-flight slot — the transport-neutral admission
// gate — counting a shed when the server is saturated. An admitted
// request gives the slot back with releaseSlot.
func (s *Server) admitSlot() bool {
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return true
	default:
		s.shed.Add(1)
		return false
	}
}

func (s *Server) releaseSlot() {
	s.inFlight.Add(-1)
	<-s.sem
}

// queryExplain reports whether an HTTP request opted into an inline
// EXPLAIN trace via ?explain=1 (or ?explain=true). The RawQuery check
// keeps URL parsing off the common path.
//
//rsmi:noalloc
func queryExplain(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// startHTTPTrace starts a trace for an HTTP request when it asked for
// EXPLAIN or the sampler picked it. The untraced hot path returns
// (nil, false) after two cheap checks and allocates nothing.
//
//rsmi:noalloc
func (s *Server) startHTTPTrace(r *http.Request, op string) (*obs.Trace, bool) {
	explain := queryExplain(r)
	if !explain && !s.cfg.Observer.ShouldTrace() {
		return nil, false
	}
	tr := s.newTrace(op, transportHTTP)
	tr.Explain = explain
	return tr, explain
}

// traceJSON snapshots tr into its wire form; the caller serialises it
// before Observer.Finish releases tr to the pool.
//
//rsmi:noalloc
func traceJSON(tr *obs.Trace) *TraceJSON {
	if tr == nil {
		return nil
	}
	tj := &TraceJSON{
		ID:            tr.ID,
		Backend:       tr.Backend,
		ShardsVisited: tr.Shards(),
		BlockAccesses: tr.Accesses(),
		CoalesceBatch: tr.BatchSize(),
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if ns := tr.StageNS(st); ns > 0 {
			tj.Stages = append(tj.Stages, TraceStageJSON{Stage: st.String(), Us: float64(ns) / 1e3})
		}
	}
	if p := tr.Plan(); p != nil {
		tj.Plan = &PlanJSON{
			Backend:      p.Backend,
			EstCostUS:    p.EstCostUS,
			ActualCostUS: p.ActualCostUS,
			EstRows:      p.EstRows,
		}
	}
	return tj
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already partially written; nothing to recover.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// statusClientClosedRequest is the (nginx-convention) status for a query
// abandoned because its client disconnected. The response is rarely
// observable — the connection is gone — but the code keeps the stats and
// logs honest.
const statusClientClosedRequest = 499

// engineErrorCode maps an engine execution error to an HTTP status:
// a forwarded write that failed on the primary keeps the primary's
// status (*StatusError, replica role), a SQL parse error is the
// client's fault (400), deadline-exceeded means the server ran out of
// time (504), cancellation means the client went away (499), anything
// else is a server fault.
func engineErrorCode(err error) int {
	var se *StatusError
	var pe *sqlfe.ParseError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.As(err, &pe):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func toPoints(pts []geom.Point) []PointJSON {
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return out
}

// queryPoint routes a point probe through the coalescer when enabled,
// threading the request's context either way: the coalescer propagates
// its micro-batch's earliest deadline into the engine, the direct path
// hands ctx straight down, and Sharded observes it between shard visits.
// A traced request's ctx already carries tr (the pipeline's bracket);
// tr itself is for the coalescer, which records the wait and the batch.
func (s *Server) queryPoint(ctx context.Context, p geom.Point, tr *obs.Trace) (bool, error) {
	if s.coPoint != nil {
		return s.coPoint.doTraced(ctx, p, tr)
	}
	return s.eng.PointQueryContext(ctx, p)
}

func (s *Server) queryWindow(ctx context.Context, q geom.Rect, tr *obs.Trace) ([]geom.Point, error) {
	if s.coWindow != nil {
		if s.hinter == nil {
			return s.coWindow.doTraced(ctx, q, tr)
		}
		// The planner's per-query hint decides ride-the-batch versus
		// direct: a cheap window amortises in a micro-batch, an expensive
		// scan would stall its batch peers for no amortisation win. An
		// empty plan (uncalibrated stats) rides — bypassing is the planner
		// speaking, not the default.
		if pl := s.hinter.PlanHint(plan.Query{Kind: plan.KindWindow, Window: q}); pl.Coalesce || pl.Backend == "" {
			return s.coWindow.doHinted(ctx, q, tr, pl.Batch)
		}
		s.planBypass.Add(1)
	}
	return s.eng.WindowQueryContext(ctx, q)
}

func (s *Server) queryKNN(ctx context.Context, q shard.KNNQuery, tr *obs.Trace) ([]geom.Point, error) {
	if s.coKNN != nil {
		if s.hinter == nil {
			return s.coKNN.doTraced(ctx, q, tr)
		}
		if pl := s.hinter.PlanHint(plan.Query{Kind: plan.KindKNN, Point: q.Q, K: q.K}); pl.Coalesce || pl.Backend == "" {
			return s.coKNN.doHinted(ctx, q, tr, pl.Batch)
		}
		s.planBypass.Add(1)
	}
	return s.eng.KNNContext(ctx, q.Q, q.K)
}

// plannerEngine is the planning surface the SQL endpoint prefers,
// implemented by plan.MultiEngine (rsmi-serve -planner): the query is
// planned first — so EXPLAIN can time the plan stage on its own — then
// executed on the backend the cost models chose. Fixed-backend servers
// execute SQL directly on their engine instead.
type plannerEngine interface {
	PlanQuery(q plan.Query) plan.Plan
	ExecPlanned(ctx context.Context, pl plan.Plan, q plan.Query) (plan.Result, error)
	PlannerStats() plan.Counters
}

// planHinter is the advisory planning surface the single-query read
// paths consult before riding the coalescer (plan.MultiEngine.PlanHint):
// the plan's Coalesce/Batch hints steer the micro-batcher without the
// counter side effects of a full PlanQuery. Cached on the Server at
// construction so the hot path pays no type assertion.
type planHinter interface {
	PlanHint(q plan.Query) plan.Plan
}

// executeSQL runs one parsed SQL query and records the plan decision —
// chosen backend, estimated vs actual cost — on the trace for EXPLAIN.
// It observes the plan and execute stages itself (the two are disjoint,
// like executeBatch's execute span).
func (s *Server) executeSQL(ctx context.Context, q plan.Query, tr *obs.Trace) (plan.Result, error) {
	if pe, ok := s.eng.(plannerEngine); ok {
		pstart := time.Now()
		pl := pe.PlanQuery(q)
		tr.MarkSince(pstart, obs.StagePlan)
		res, err := pe.ExecPlanned(ctx, pl, q)
		if err != nil {
			return plan.Result{}, err
		}
		if tr != nil {
			tr.ObserveStage(obs.StageExecute, time.Duration(res.ActualUS*1e3))
			tr.SetPlan(obs.PlanInfo{
				Backend:      res.Plan.Backend,
				EstCostUS:    res.Plan.EstCostUS,
				ActualCostUS: res.ActualUS,
				EstRows:      res.Plan.EstRows,
			})
		}
		return res, nil
	}
	// Fixed backend: a degenerate plan — everything routes to the one
	// engine, with no cost estimate. Queries ride the same
	// coalescer-backed helpers as the per-op endpoints, so concurrent
	// SQL still micro-batches.
	start := time.Now()
	var res plan.Result
	switch q.Kind {
	case plan.KindPoint:
		found, err := s.queryPoint(ctx, q.Point, tr)
		if err != nil {
			return plan.Result{}, err
		}
		res.Found = found
		if found {
			res.Points = []geom.Point{q.Point}
		}
	case plan.KindWindow:
		pts, err := s.queryWindow(ctx, q.Window, tr)
		if err != nil {
			return plan.Result{}, err
		}
		res.Points = plan.FinishWindow(q, pts)
		res.Found = len(res.Points) > 0
	case plan.KindKNN:
		pts, err := s.queryKNN(ctx, shard.KNNQuery{Q: q.Point, K: q.K}, tr)
		if err != nil {
			return plan.Result{}, err
		}
		res.Points = pts
		res.Found = len(pts) > 0
	}
	res.ActualUS = usSince(start)
	res.Plan = plan.Plan{Backend: s.eng.Name(), Batch: 1}
	tr.ObserveStage(obs.StageExecute, time.Since(start))
	tr.SetPlan(obs.PlanInfo{Backend: res.Plan.Backend, ActualCostUS: res.ActualUS})
	return res, nil
}

// usSince reports microseconds elapsed since t.
func usSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.TriggerRebuild() {
		writeError(w, http.StatusConflict, "rebuild already running")
		return
	}
	writeJSONStatus(w, http.StatusAccepted, OKResponse{OK: true})
}

// opStats merges one op's per-transport histograms into its /v1/stats
// summary.
func (s *Server) opStats(op opIdx) OpStats {
	return mergedStats(&s.hists[op][transportHTTP], &s.hists[op][transportStream])
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Engine:         s.eng.Name(),
		Points:         s.eng.Len(),
		UptimeSec:      time.Since(s.start).Seconds(),
		BlockAccesses:  s.eng.Accesses(),
		InFlight:       s.inFlight.Load(),
		Shed:           s.shed.Load(),
		Rebuilds:       s.rebuilds.Load(),
		RebuildRunning: s.rebuildRunning.Load(),
		Ops: map[string]OpStats{
			OpPoint:  s.opStats(opIdxPoint),
			OpWindow: s.opStats(opIdxWindow),
			OpKNN:    s.opStats(opIdxKNN),
			OpInsert: s.opStats(opIdxInsert),
			OpDelete: s.opStats(opIdxDelete),
			"batch":  s.opStats(opIdxBatch),
			OpSQL:    s.opStats(opIdxSQL),
		},
	}
	if pe, ok := s.eng.(plannerEngine); ok {
		c := pe.PlannerStats()
		resp.Planner = &PlannerStatsJSON{Planned: c.Planned, Mispredicts: c.Mispredicts, Routed: c.Routed}
	}
	if sc, ok := s.eng.(shardCounter); ok {
		resp.Shards = sc.NumShards()
	}
	if s.cfg.Replicator != nil {
		resp.Replication = s.cfg.Replicator.stats()
	} else if s.cfg.Replica != nil {
		resp.Replication = s.cfg.Replica.stats()
	}
	if s.subs != nil {
		c := s.subs.Counters()
		resp.Subs = &SubStats{
			Active:       c.Active,
			Subscribed:   c.Subscribed,
			Unsubscribed: c.Unsubscribed,
			Notified:     c.Notified,
			Dropped:      c.Dropped,
		}
	}
	if s.coPoint != nil {
		for _, c := range []interface {
			snapshot() (int64, int64, int64, int64)
		}{
			s.coPoint, s.coWindow, s.coKNN,
		} {
			b, q, m, d := c.snapshot()
			resp.Coalesce.Batches += b
			resp.Coalesce.Queries += q
			resp.Coalesce.Direct += d
			if m > resp.Coalesce.MaxSize {
				resp.Coalesce.MaxSize = m
			}
		}
		if resp.Coalesce.Batches > 0 {
			resp.Coalesce.MeanSize = float64(resp.Coalesce.Queries) / float64(resp.Coalesce.Batches)
		}
	}
	writeJSON(w, resp)
}

// handleHealth answers /healthz: pure liveness — the process is up and
// serving its mux. Readiness (is this node safe to route queries to?)
// is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReady answers /readyz. A primary or standalone server is ready
// as soon as it serves; a replica is ready only when it is bootstrapped,
// connected to its feed, and its applied sequence is within
// Config.ReadyMaxLag of the primary's — a freshly (re)bootstrapping or
// badly lagging replica answers 503 so load balancers route around it
// while /healthz keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if rep := s.cfg.Replica; rep != nil {
		if ready, reason := rep.Ready(s.cfg.ReadyMaxLag); !ready {
			writeError(w, http.StatusServiceUnavailable, "replica not ready: "+reason)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}
