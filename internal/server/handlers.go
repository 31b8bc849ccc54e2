package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/sqlfe"
	"rsmi/internal/wire"
)

// maxBodyBytes bounds single-op request bodies; batch bodies get
// maxBatchBodyBytes.
const (
	maxBodyBytes      = 4 << 10
	maxBatchBodyBytes = 8 << 20
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
func traceJSON(tr *obs.Trace) *wire.TraceJSON {
	if tr == nil {
		return nil
	}
	tj := &wire.TraceJSON{
		ID:            tr.ID,
		Backend:       tr.Backend,
		ShardsVisited: tr.Shards(),
		BlockAccesses: tr.Accesses(),
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if ns := tr.StageNS(st); ns > 0 {
			tj.Stages = append(tj.Stages, wire.TraceStageJSON{Stage: st.String(), Us: float64(ns) / 1e3})
		}
	}
	if p := tr.Plan(); p != nil {
		tj.Plan = &wire.PlanJSON{
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
	// An error leaves the response partially written; nothing to recover.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: msg})
}

// statusClientClosedRequest is the (nginx-convention) status for a query
// abandoned because its client disconnected. The response is rarely
// observable — the connection is gone — but the code keeps the stats and
// logs honest.
const statusClientClosedRequest = 499

// engineError maps an engine execution error to an HTTP status and the
// message to send with it: an error that already carries a status
// (*wire.StatusError — a forwarded write the primary refused, a SUB on a
// backend without write hooks) keeps its code and bare message, so the
// client's own StatusError does not wrap its text a second time; a SQL
// parse error is the client's fault (400), deadline-exceeded means the
// server ran out of time (504), cancellation means the client went away
// (499), anything else is a server fault.
func engineError(err error) (code int, msg string) {
	var se *wire.StatusError
	var pe *sqlfe.ParseError
	switch {
	case errors.As(err, &se):
		return se.Code, se.Msg
	case errors.As(err, &pe):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, err.Error()
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, err.Error()
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// plannerEngine is the planning surface the SQL endpoint prefers,
// implemented by plan.MultiEngine (rsmi-serve -engine planner): the query is
// planned first — so EXPLAIN can time the plan stage on its own — then
// executed on the backend the cost models chose. Fixed-backend servers
// execute SQL directly on their engine instead.
type plannerEngine interface {
	PlanQuery(q plan.Query) plan.Plan
	ExecPlanned(ctx context.Context, pl plan.Plan, q plan.Query) (plan.Result, error)
	PlannerStats() plan.Counters
}

// executeSQL runs one parsed SQL query and records the plan decision —
// chosen backend, estimated vs actual cost — on the trace for EXPLAIN.
// It observes the plan and execute stages itself (the two are disjoint,
// like executeBatch's execute span). A fixed-backend server's plan is
// degenerate: everything routes to the one engine, with no cost
// estimate.
func (s *Server) executeSQL(ctx context.Context, q plan.Query, tr *obs.Trace) (plan.Result, error) {
	var (
		res plan.Result
		err error
	)
	if pe, ok := s.eng.(plannerEngine); ok {
		pstart := time.Now()
		pl := pe.PlanQuery(q)
		tr.MarkSince(pstart, obs.StagePlan)
		res, err = pe.ExecPlanned(ctx, pl, q)
	} else {
		res, err = plan.Execute(ctx, s.eng, q)
	}
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

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.Replica != nil {
		writeError(w, errReplicaRebuild.Code, errReplicaRebuild.Msg)
		return
	}
	if !s.triggerRebuild() {
		writeError(w, http.StatusConflict, "rebuild already running")
		return
	}
	writeJSONStatus(w, http.StatusAccepted, wire.OKResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := wire.StatsResponse{
		Engine:         s.eng.Name(),
		Points:         s.eng.Len(),
		UptimeSec:      time.Since(s.start).Seconds(),
		BlockAccesses:  s.eng.Accesses(),
		InFlight:       s.inFlight.Load(),
		Shed:           s.shed.Load(),
		Rebuilds:       s.rebuilds.Load(),
		RebuildRunning: s.rebuildRunning.Load(),
		Stream:         s.streamStats(),
		Ops:            make(map[string]wire.OpStats, wire.NumRoutes),
		Replication:    s.replicationStats(),
	}
	for i := range wire.NumRoutes {
		resp.Ops[wire.Lookup(i).Op] = mergedStats(&s.hists[i][transportHTTP], &s.hists[i][transportStream])
	}
	if pe, ok := s.eng.(plannerEngine); ok {
		c := pe.PlannerStats()
		resp.Planner = &wire.PlannerStatsJSON{Planned: c.Planned, Mispredicts: c.Mispredicts, Routed: c.Routed}
	}
	if sc, ok := s.eng.(shardCounter); ok {
		resp.Shards = sc.NumShards()
	}
	if s.subs != nil {
		c := s.subs.Counters()
		resp.Subs = &wire.SubStats{
			Active:       c.Active,
			Subscribed:   c.Subscribed,
			Unsubscribed: c.Unsubscribed,
			Notified:     c.Notified,
			Dropped:      c.Dropped,
		}
	}
	writeJSON(w, resp)
}

// replicationStats is this server's replication state, nil on a
// standalone server.
func (s *Server) replicationStats() *wire.ReplicationStats {
	switch {
	case s.cfg.Replicator != nil:
		return s.cfg.Replicator.stats()
	case s.cfg.Replica != nil:
		return s.cfg.Replica.stats()
	}
	return nil
}

// handleHealth answers /healthz: pure liveness — the process is up and
// serving its mux. Readiness (is this node safe to route queries to?)
// is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// readyMaxLag is the /readyz threshold on a replica, in oplog records.
const readyMaxLag = 1024

// handleReady answers /readyz. A primary or standalone server is ready
// as soon as it serves; a replica is ready only when its first snapshot
// serves, it is connected to its feed, and its applied sequence is within
// readyMaxLag of the primary's — a replica still waiting for its snapshot
// or badly lagging answers 503 so load balancers route around it while /healthz
// keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if rep := s.cfg.Replica; rep != nil {
		if ready, reason := rep.Ready(readyMaxLag); !ready {
			writeError(w, http.StatusServiceUnavailable, "replica not ready: "+reason)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}
