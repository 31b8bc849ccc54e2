// Package server is the network serving subsystem: it puts any
// rsmi.Engine — the sharded RSMI, or a baseline (R*-tree, Grid File,
// K-D-B-tree) under one RWMutex — behind an HTTP+JSON API, so that
// backends are compared fairly: every one serves through the identical stack
// ("Evaluating Learned Spatial Indexes", PAPERS.md, on wall-clock
// comparisons under one harness).
//
// Request contexts are threaded end to end: handlers pass r.Context()
// (and the stream transport a per-request deadline) into the engine,
// which observes cancellation between shard visits. A request executes
// on the goroutine that decoded it — the HTTP handler's, or the stream
// connection's read loop until it overruns a 1 ms budget — under its own
// context, from decode to reply.
//
// # Endpoints
//
//	POST /v1/point    {"x","y"}                → {"found"}
//	POST /v1/window   {"min_x",…,"max_y"}      → {"count","points"}
//	POST /v1/knn      {"x","y","k"}            → {"count","points"}
//	POST /v1/insert   {"x","y"}                → {"ok"}
//	POST /v1/delete   {"x","y"}                → {"deleted"}
//	POST /v1/batch    {"ops":[…]}              → {"results":[…]}
//	POST /v1/sql      {"query":"SELECT …"}     → {"count","points"}
//	POST /v1/rebuild                           → 202 (409 if running)
//	GET  /v1/stats                             → serving + index counters
//	GET  /healthz                              → 200 "ok"
//
// The seven data endpoints — in either wire encoding, and the stream
// transport's frames — are thin adapters over one request pipeline
// (pipeline.go): admit → decode → validate → execute → encode.
//
// # Batching
//
// Batching is the client's choice: /v1/batch (or a multi-op stream
// frame) carries a list of operations in one round trip, and the server
// runs them in request order, each as the one engine call a single-op
// request makes, so a write is visible to every later op of its batch.
// What a batch saves is round trips, not engine work (EXPERIMENTS.md
// "Derived batches"). (A server-side combiner that merged concurrent
// single queries into engine batch calls was measured and removed: at
// every load tried the two goroutine hand-offs cost more than the merged
// call saved — EXPERIMENTS.md "Direct execution".)
//
// # Admission control and shutdown
//
// A bounded in-flight gate sheds excess load with 429 before it queues
// (Config.MaxInFlight). Shutdown drains in-flight queries, then waits for
// a running rolling rebuild to finish, so a snapshot taken after Shutdown
// returns is always consistent.
//
// # Stream transport
//
// Beyond HTTP, the server can serve rsmibin/1 over persistent pipelined
// TCP connections (Config.StreamAddr / ServeStream — the rsmistream
// transport, stream.go), with identical semantics: the same pipeline,
// admission gate, histograms, and shutdown draining. Answers that are
// ready together leave a connection in one write.
package server

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/obs"
	"rsmi/internal/sub"
)

// Engine is the index surface the server serves: the public context-aware
// rsmi.Engine v2 API, implemented by rsmi.Index, rsmi.Sharded and the
// baseline engines (rsmi.NewBaselineEngine), so one serving stack fronts
// every backend of the paper's evaluation.
// Handlers thread each request's context into the engine; Sharded
// observes it between shard visits.
type Engine = rsmi.Engine

// shardCounter is implemented by sharded engines; /v1/stats reports the
// shard count when available.
type shardCounter interface {
	NumShards() int
}

// Config configures a Server. The zero value (plus an Engine) serves with
// the defaults below.
type Config struct {
	// Engine is the index to serve. Required.
	Engine Engine
	// MaxInFlight bounds concurrently admitted requests; excess load is
	// shed immediately with 429 (default 1024).
	MaxInFlight int
	// StreamAddr, when non-empty, makes ListenAndServe also open a raw
	// TCP listener on this address serving rsmibin/1 over persistent
	// pipelined connections (the rsmistream transport, see stream.go).
	// Tests and embedders may instead hand ServeStream a listener
	// directly.
	StreamAddr string
	// StreamRequestTimeout, when positive, bounds each stream request's
	// execution with a per-request deadline (the stream analogue of an
	// HTTP request context): a request still executing past it fails with
	// a 504-coded status frame instead of occupying the engine. 0 means
	// no deadline.
	StreamRequestTimeout time.Duration
	// Replicator, when non-nil, makes this server a replication primary:
	// it exposes /v1/replica/info and /v1/replica/snapshot and serves
	// the oplog feed to replicas over the rsmistream listener. Engine
	// should be the Replicator's write-gated view (Replicator.Engine()).
	Replicator *Replicator
	// Replica, when non-nil, marks this server a replica so /v1/stats
	// reports its replication state. Engine should be Replica.Engine().
	Replica *Replica
	// Observer decides which requests are traced (sampling and/or the
	// slow-query log; see internal/obs). nil traces nothing — EXPLAIN
	// requests are still honoured, every other request pays one nil
	// check.
	Observer *obs.Observer
	// ReadyMaxLag is the /readyz threshold on a replica: the replica
	// reports ready only while primarySeq - appliedSeq <= ReadyMaxLag
	// (default 1024). Primaries and standalone servers are always ready.
	ReadyMaxLag uint64
	// SubOutbox caps each stream connection's standing-query notification
	// outbox (default 256). A subscriber that stops reading fills it and
	// loses notifications under drop-and-mark semantics — the write path
	// is never blocked by a slow consumer.
	SubOutbox int
	// DisableSubs turns the standing-query layer off even when the
	// engine could support it; SUB frames then answer 501.
	DisableSubs bool
	// EnablePprof registers net/http/pprof under /debug/pprof/ on this
	// server's mux. Off by default: profiling endpoints leak heap and
	// symbol contents, so exposure is an explicit operator decision
	// (rsmi-serve -pprof).
	EnablePprof bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1024
	}
	if c.ReadyMaxLag == 0 {
		c.ReadyMaxLag = 1024
	}
	return c
}

// transportIdx indexes the per-transport histogram tables: HTTP (JSON
// and rsmibin share the socket semantics) vs the persistent TCP stream.
type transportIdx int

const (
	transportHTTP transportIdx = iota
	transportStream
	numTransports
)

// transportIdxName maps a transportIdx to its /metrics label.
var transportIdxName = [numTransports]string{"http", "stream"}

// Server serves an Engine over HTTP. Create with New, attach with
// Handler or Serve/ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	eng   Engine
	mux   *http.ServeMux
	hs    *http.Server
	start time.Time

	// Admission gate: a semaphore of in-flight request slots.
	sem      chan struct{}
	inFlight atomic.Int64
	shed     atomic.Int64

	// Per-op × per-transport latency histograms (successful operations
	// only), indexed by opTable row; the routed rows are used. /v1/stats
	// reports them merged per op; /metrics exposes the full op ×
	// transport matrix.
	hists [len(opTable)][numTransports]histogram
	// histRebuild tracks rolling-rebuild durations for /metrics.
	histRebuild histogram

	// Rolling-rebuild coordination.
	rebuildRunning atomic.Bool
	rebuildDonePtr atomic.Pointer[chan struct{}]
	rebuilds       atomic.Int64

	// Stream transport state (stream.go): live listeners and
	// connections, the shutdown signal, and the per-connection loops'
	// WaitGroup.
	streamMu       sync.Mutex
	streamLs       []net.Listener
	streamConns    map[net.Conn]struct{}
	streamClosed   bool
	streamStop     chan struct{}
	streamStopOnce sync.Once
	streamWG       sync.WaitGroup
	// Stream write-path counters: frames that left through a connection's
	// write queue, the conn.Write calls that carried them, and inline
	// frames that overran streamInlineBudget and lost the read loop.
	streamFrames, streamFlushes, streamTakeovers atomic.Int64

	// Standing-query state (subserve.go): the subscription registry (nil
	// when the engine has no write hooks or Config.DisableSubs is set),
	// its write-tap removal, the per-connection id source, and the
	// matcher-to-wire notify latency histogram.
	subs          *sub.Registry
	subRemove     func()
	subConnID     atomic.Uint64
	subNotifyHist histogram
}

// New builds a Server around cfg.Engine.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	s := &Server{
		cfg:         cfg,
		eng:         cfg.Engine,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		sem:         make(chan struct{}, cfg.MaxInFlight),
		streamConns: make(map[net.Conn]struct{}),
		streamStop:  make(chan struct{}),
	}
	if !cfg.DisableSubs {
		s.initSubs()
	}
	for i := range routes {
		s.mux.HandleFunc(routes[i].path, s.handleRoute(&routes[i]))
	}
	s.mux.HandleFunc("/v1/rebuild", s.handleRebuild)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	if cfg.Replicator != nil {
		s.mux.HandleFunc("/v1/replica/info", s.handleReplicaInfo)
		s.mux.HandleFunc("/v1/replica/snapshot", s.handleReplicaSnapshot)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// observeOp records the latency of one successful operation of opTable
// row op.
//
//rsmi:noalloc
func (s *Server) observeOp(op byte, tr transportIdx, d time.Duration) {
	s.hists[op][tr].observe(d)
}

// Handler returns the HTTP handler (useful for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown; like http.Server.Serve
// it returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// ListenAndServe listens on addr and serves until Shutdown. When
// Config.StreamAddr is set, it also opens the rsmistream TCP listener
// there (served on a background goroutine; Shutdown stops both).
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.cfg.StreamAddr != "" {
		sl, err := net.Listen("tcp", s.cfg.StreamAddr)
		if err != nil {
			l.Close()
			return err
		}
		go s.ServeStream(sl)
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: it stops accepting connections
// (HTTP and stream), drains in-flight requests on both transports
// (bounded by ctx), and waits for a running rolling rebuild to complete,
// so the engine is quiescent — and safe to snapshot — once Shutdown
// returns.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if serr := s.shutdownStream(ctx); err == nil {
		err = serr
	}
	s.closeSubs()
	if done := s.rebuildDoneChan(); done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	return err
}

// TriggerRebuild starts a rolling rebuild on a background goroutine; it
// reports false if one is already running. Sharded engines keep serving
// during the rebuild (one shard retrains at a time); Shutdown waits for a
// running rebuild before returning.
func (s *Server) TriggerRebuild() bool {
	if !s.rebuildRunning.CompareAndSwap(false, true) {
		return false
	}
	done := make(chan struct{})
	s.setRebuildDone(done)
	go func() {
		defer func() {
			s.rebuildRunning.Store(false)
			close(done)
		}()
		// The rebuild is server-initiated, not tied to any request's
		// lifetime; Shutdown waits for it rather than cancelling it.
		start := time.Now()
		//rsmi:allow ctxflow -- server-initiated maintenance; Shutdown waits for it rather than cancelling
		if err := s.eng.RebuildContext(context.Background()); err == nil {
			s.rebuilds.Add(1)
			s.histRebuild.observe(time.Since(start))
		}
	}()
	return true
}

func (s *Server) setRebuildDone(ch chan struct{}) {
	s.rebuildDonePtr.Store(&ch)
}

func (s *Server) rebuildDoneChan() chan struct{} {
	p := s.rebuildDonePtr.Load()
	if p == nil {
		return nil
	}
	return *p
}
