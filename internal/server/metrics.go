package server

// GET /metrics: Prometheus text exposition (format 0.0.4), hand-rolled
// so the serving tier stays dependency-free. Every series is emitted on
// every scrape — absent-vs-zero never ambiguates a dashboard — and the
// whole page is built from the same lock-free counters the request path
// already maintains, so a scrape costs a few atomic loads and one
// buffer write, never a lock on the hot path.
//
// Latency histograms are exposed in seconds with the internal
// quarter-octave buckets coarsened to octaves (le = 2^k µs): 30 buckets
// per series instead of 120 keeps scrape size and TSDB cardinality sane
// while the native resolution still backs /v1/stats quantiles. The
// torn-observe invariant carries over: count is loaded before buckets
// (mirroring observe's bucket-before-count order), so the +Inf bucket —
// the summed buckets — can only meet or exceed _count's source and the
// exposition stays internally consistent (le buckets monotone, +Inf ==
// _count as required by the format).

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"rsmi/internal/sub"
	"rsmi/internal/wire"
)

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics answers GET /metrics. Scrapes bypass the admission gate:
// telemetry must stay readable exactly when the gate is shedding.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var b bytes.Buffer
	b.Grow(16 << 10)
	s.writeMetrics(&b)
	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write(b.Bytes())
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promHead writes one metric's HELP and TYPE lines.
func promHead(b *bytes.Buffer, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promSeries formats "name" or "name{labels}".
func promSeries(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// promInt and promFloat write one sample line.
func promInt(b *bytes.Buffer, name, labels string, v int64) {
	fmt.Fprintf(b, "%s %d\n", promSeries(name, labels), v)
}

func promFloat(b *bytes.Buffer, name, labels string, v float64) {
	fmt.Fprintf(b, "%s %g\n", promSeries(name, labels), v)
}

// promBool writes 1 or 0.
func promBool(b *bytes.Buffer, name, labels string, v bool) {
	n := int64(0)
	if v {
		n = 1
	}
	promInt(b, name, labels, n)
}

// withLe appends an le pair to a (possibly empty) label list.
func withLe(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

// writeOctaveHist writes one latency histogram in seconds, coarsening
// the quarter-octave snapshot to octave bounds (le = 2^k µs, k=1..30).
func writeOctaveHist(b *bytes.Buffer, name, labels string, sn *histSnapshot) {
	var cum int64
	for k := 0; k < histBuckets/4; k++ {
		cum += sn.buckets[4*k] + sn.buckets[4*k+1] + sn.buckets[4*k+2] + sn.buckets[4*k+3]
		le := math.Exp2(float64(k+1)) / 1e6
		fmt.Fprintf(b, "%s %d\n", promSeries(name+"_bucket", withLe(labels, fmt.Sprintf("%g", le))), cum)
	}
	fmt.Fprintf(b, "%s %d\n", promSeries(name+"_bucket", withLe(labels, "+Inf")), cum)
	promFloat(b, name+"_sum", labels, float64(sn.sumNS)/1e9)
	promInt(b, name+"_count", labels, cum)
}

// writeMetrics renders the full exposition page.
func (s *Server) writeMetrics(b *bytes.Buffer) {
	// Build and process-level gauges.
	promHead(b, "rsmi_build_info", "gauge", "Constant 1, labelled with the serving engine.")
	promInt(b, "rsmi_build_info", `engine="`+promEscape(s.eng.Name())+`"`, 1)
	promHead(b, "rsmi_uptime_seconds", "gauge", "Seconds since the server started.")
	promFloat(b, "rsmi_uptime_seconds", "", time.Since(s.start).Seconds())
	promHead(b, "rsmi_points", "gauge", "Points currently indexed.")
	promInt(b, "rsmi_points", "", int64(s.eng.Len()))
	promHead(b, "rsmi_shards", "gauge", "Shards in the serving engine (0 for unsharded backends).")
	shards := 0
	if sc, ok := s.eng.(shardCounter); ok {
		shards = sc.NumShards()
	}
	promInt(b, "rsmi_shards", "", int64(shards))
	promHead(b, "rsmi_block_accesses_total", "counter", "Cumulative index block accesses — the paper's accesses-vs-time cost metric.")
	promInt(b, "rsmi_block_accesses_total", "", s.eng.Accesses())

	// Admission gate.
	promHead(b, "rsmi_requests_in_flight", "gauge", "Requests currently admitted (both transports).")
	promInt(b, "rsmi_requests_in_flight", "", s.inFlight.Load())
	promHead(b, "rsmi_admission_shed_total", "counter", "Requests shed by the admission gate (HTTP 429 / stream status 429).")
	promInt(b, "rsmi_admission_shed_total", "", s.shed.Load())

	// Stream transport write path (stream.go). frames ÷ flushes is the
	// group-commit ratio; takeovers move when a frame ran — a long batch —
	// or waited — a lock, the primary — past streamInlineBudget.
	st := s.streamStats()
	promHead(b, "rsmi_stream_frames_total", "counter", "Response and push frames written to stream connections.")
	promInt(b, "rsmi_stream_frames_total", "", st.Frames)
	promHead(b, "rsmi_stream_flushes_total", "counter", "Socket writes that carried those frames (frames / flushes = frames per write).")
	promInt(b, "rsmi_stream_flushes_total", "", st.Flushes)
	promHead(b, "rsmi_stream_takeovers_total", "counter", "Stream frames that overran the inline budget and lost their connection's read loop.")
	promInt(b, "rsmi_stream_takeovers_total", "", st.Takeovers)

	// Per-op × per-transport request counts and latency histograms.
	promHead(b, "rsmi_op_requests_total", "counter", "Successful operations by op and transport.")
	for op := range wire.NumRoutes {
		for tr := transportIdx(0); tr < numTransports; tr++ {
			labels := `op="` + wire.Lookup(op).Op + `",transport="` + transportIdxName[tr] + `"`
			promInt(b, "rsmi_op_requests_total", labels, s.hists[op][tr].count.Load())
		}
	}
	promHead(b, "rsmi_op_duration_seconds", "histogram", "Successful operation latency by op and transport.")
	for op := range wire.NumRoutes {
		for tr := transportIdx(0); tr < numTransports; tr++ {
			var sn histSnapshot
			s.hists[op][tr].snapshotInto(&sn)
			labels := `op="` + wire.Lookup(op).Op + `",transport="` + transportIdxName[tr] + `"`
			writeOctaveHist(b, "rsmi_op_duration_seconds", labels, &sn)
		}
	}

	// Rolling rebuilds.
	promHead(b, "rsmi_rebuilds_total", "counter", "Completed rolling rebuilds.")
	promInt(b, "rsmi_rebuilds_total", "", s.rebuilds.Load())
	promHead(b, "rsmi_rebuild_running", "gauge", "1 while a rolling rebuild is in progress.")
	promBool(b, "rsmi_rebuild_running", "", s.rebuildRunning.Load())
	promHead(b, "rsmi_rebuild_duration_seconds", "histogram", "Rolling rebuild wall-clock durations.")
	var rb histSnapshot
	s.histRebuild.snapshotInto(&rb)
	writeOctaveHist(b, "rsmi_rebuild_duration_seconds", "", &rb)

	// Replication, read from the /v1/stats record. Role-specific series
	// report 0 on the other roles so the series set is scrape-stable.
	rs := wire.ReplicationStats{Role: "standalone"}
	if p := s.replicationStats(); p != nil {
		rs = *p
	}
	var oplogCap, oplogHeadroom int64
	if rep := s.cfg.Replicator; rep != nil {
		rs.AppliedSeq, rs.Connected = rs.LastSeq, true
		oplogCap = int64(rep.log.capacity())
		retained := int64(0)
		if rs.LastSeq > 0 {
			retained = int64(rs.LastSeq - rs.FirstSeq + 1)
		}
		oplogHeadroom = oplogCap - retained
	}
	promHead(b, "rsmi_replication_role", "gauge", "Constant 1, labelled with this server's replication role.")
	promInt(b, "rsmi_replication_role", `role="`+rs.Role+`"`, 1)
	promHead(b, "rsmi_replication_first_seq", "gauge", "Oldest oplog sequence still retained (primary).")
	promInt(b, "rsmi_replication_first_seq", "", int64(rs.FirstSeq))
	promHead(b, "rsmi_replication_last_seq", "gauge", "Newest known primary sequence.")
	promInt(b, "rsmi_replication_last_seq", "", int64(rs.LastSeq))
	promHead(b, "rsmi_replication_applied_seq", "gauge", "Last sequence applied locally (equals last_seq on the primary).")
	promInt(b, "rsmi_replication_applied_seq", "", int64(rs.AppliedSeq))
	promHead(b, "rsmi_replication_lag_seq", "gauge", "Sequences this replica is behind the primary (0 when caught up or not a replica).")
	promInt(b, "rsmi_replication_lag_seq", "", int64(rs.LagSeq))
	promHead(b, "rsmi_replication_lag_seconds", "gauge", "Estimated replication lag in seconds, measured against the primary's clock.")
	promFloat(b, "rsmi_replication_lag_seconds", "", rs.LagSeconds)
	promHead(b, "rsmi_replication_connected", "gauge", "1 while the oplog feed is live (always 1 on a primary).")
	promBool(b, "rsmi_replication_connected", "", rs.Connected)
	promHead(b, "rsmi_replication_followers", "gauge", "Replicas currently attached to this primary's oplog feed.")
	promInt(b, "rsmi_replication_followers", "", rs.Followers)
	promHead(b, "rsmi_replication_resyncs_total", "counter", "Full re-bootstraps this replica has performed.")
	promInt(b, "rsmi_replication_resyncs_total", "", rs.Resyncs)
	promHead(b, "rsmi_oplog_capacity", "gauge", "Oplog retention capacity in records (primary).")
	promInt(b, "rsmi_oplog_capacity", "", oplogCap)
	promHead(b, "rsmi_oplog_headroom", "gauge", "Oplog slots before the oldest retained record is overwritten; a replica lagging by more than this must resync.")
	promInt(b, "rsmi_oplog_headroom", "", oplogHeadroom)

	// Cost-based planner routing, when the serving engine plans. The
	// aggregate series report 0 on fixed backends so the set is
	// scrape-stable; the per-backend routed series exist only on a
	// planner (their label set is the planner's backend list).
	var planned, mispredicts int64
	var routed map[string]int64
	if pe, ok := s.eng.(plannerEngine); ok {
		c := pe.PlannerStats()
		planned, mispredicts, routed = c.Planned, c.Mispredicts, c.Routed
	}
	promHead(b, "rsmi_plan_queries_total", "counter", "Queries routed by the cost-based planner (0 on fixed backends).")
	promInt(b, "rsmi_plan_queries_total", "", planned)
	promHead(b, "rsmi_plan_mispredicts_total", "counter", "Planned queries whose actual cost fell outside [est/2, 2*est].")
	promInt(b, "rsmi_plan_mispredicts_total", "", mispredicts)
	if len(routed) > 0 {
		promHead(b, "rsmi_plan_routed_total", "counter", "Planned queries by chosen backend.")
		names := make([]string, 0, len(routed))
		for name := range routed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			promInt(b, "rsmi_plan_routed_total", `backend="`+promEscape(name)+`"`, routed[name])
		}
	}

	// Standing queries (internal/sub). Zero-valued when the engine has no
	// write hooks (s.subs == nil) so the series set is scrape-stable.
	var subs sub.Counters
	if s.subs != nil {
		subs = s.subs.Counters()
	}
	promHead(b, "rsmi_sub_active", "gauge", "Standing queries currently registered.")
	promInt(b, "rsmi_sub_active", "", subs.Active)
	promHead(b, "rsmi_sub_subscribed_total", "counter", "SUB registrations accepted.")
	promInt(b, "rsmi_sub_subscribed_total", "", subs.Subscribed)
	promHead(b, "rsmi_sub_unsubscribed_total", "counter", "Standing queries removed by UNSUB or connection teardown.")
	promInt(b, "rsmi_sub_unsubscribed_total", "", subs.Unsubscribed)
	promHead(b, "rsmi_sub_notified_total", "counter", "Notifications enqueued to subscriber outboxes.")
	promInt(b, "rsmi_sub_notified_total", "", subs.Notified)
	promHead(b, "rsmi_sub_dropped_total", "counter", "Notifications dropped on full outboxes (the next delivered one carries the missed flag).")
	promInt(b, "rsmi_sub_dropped_total", "", subs.Dropped)
	promHead(b, "rsmi_sub_notify_duration_seconds", "histogram", "Queue-to-push latency of delivered notifications.")
	var sns histSnapshot
	s.subNotifyHist.snapshotInto(&sns)
	writeOctaveHist(b, "rsmi_sub_notify_duration_seconds", "", &sns)

	// Slow-query log.
	var slowLogged, slowSuppressed int64
	if sl := s.cfg.Observer.SlowLog(); sl != nil {
		slowLogged, slowSuppressed = sl.Logged(), sl.Suppressed()
	}
	promHead(b, "rsmi_slow_queries_logged_total", "counter", "Slow-query log lines written.")
	promInt(b, "rsmi_slow_queries_logged_total", "", slowLogged)
	promHead(b, "rsmi_slow_queries_suppressed_total", "counter", "Slow queries dropped by the log's rate limit.")
	promInt(b, "rsmi_slow_queries_suppressed_total", "", slowSuppressed)
}
