// Command rsmi-serve puts a spatial index — the sharded RSMI by default,
// or any backend of the paper's evaluation via -engine — behind the HTTP
// serving API of internal/server: per-operation endpoints plus /v1/batch,
// bounded in-flight admission control with 429 shedding, /v1/stats
// counters, and graceful shutdown on SIGINT/SIGTERM that drains in-flight
// queries and waits for a running rolling rebuild. A single query
// executes as one engine call on the goroutine that decoded it; batching
// is the client's choice (/v1/batch). Every data-plane endpoint speaks
// both wire protocols, negotiated per request: JSON (the debuggable
// default) and the length-prefixed rsmibin/1 binary encoding (drive it
// with rsmi-loadgen -proto binary; see internal/server/binproto.go). With
// -stream-addr, the same rsmibin encoding is additionally served over
// persistent pipelined TCP connections — no HTTP framing at all (the
// rsmistream transport, internal/server/stream.go; drive it with
// rsmi-loadgen -transport tcp).
//
// Request contexts are threaded into the engine: a disconnected client's
// query stops between shard visits instead of running to completion, and
// -stream-request-timeout bounds each stream request with a server-side
// deadline the engine observes the same way.
//
// Usage:
//
//	rsmi-serve -addr :8080 -dist skewed -n 100000 -shards 8
//	rsmi-serve -shards 1 -dist skewed -n 100000       # one lock over one RSMI
//	rsmi-serve -engine rstar -dist skewed -n 100000
//	rsmi-serve -dataset skewed_1m.bin -snapshot skewed_1m.idx
//	rsmi-serve -max-inflight 512
//	rsmi-serve -addr :8080 -stream-addr :8081 -stream-request-timeout 5s
//	rsmi-serve -addr :8080 -stream-addr :8081              # primary
//	rsmi-serve -addr :8082 -replica-of 127.0.0.1:8080      # replica
//	rsmi-serve -planner -dist skewed -n 100000             # cost-based router
//	rsmi-serve -trace-sample 100 -slow-query 50ms -pprof   # observability
//
// -engine selects the backend: "sharded" (the default: S space-partitioned
// RSMI shards; -shards 1 is one RWMutex over one RSMI), or a baseline of
// the paper's comparison — "rstar" (R*-tree), "grid" (Grid File), "kdb"
// (K-D-B-tree) — all served through the identical stack, which is what
// makes cross-engine serving numbers comparable (EXPERIMENTS.md "Serving
// across backends").
//
// -planner builds every backend (sharded RSMI primary plus the three
// baselines) over the same point set and serves them behind the
// cost-based planner (internal/plan): each query routes to the backend
// the calibrated cost models predict cheapest, writes apply everywhere,
// and POST /v1/sql accepts the spatial SQL dialect (internal/sqlfe).
// EXPLAIN (?explain=1 or the rsmibin flag bit) reports the chosen
// backend with estimated vs actual cost, /v1/stats gains planner
// counters, and /metrics gains rsmi_plan_* series.
//
// With -snapshot (sharded engine only), the index is loaded from the
// snapshot when it exists (restart without retraining) and
// built-then-saved when it does not. Training at paper scale takes hours,
// so production deployments always run with a snapshot.
//
// # Replication
//
// A sharded primary is always replicable: it taps every applied write
// into a sequenced oplog and serves /v1/replica/info and
// /v1/replica/snapshot; the oplog feed itself rides the -stream-addr
// listener, so a primary that should accept replicas must serve the
// stream transport. A server started with -replica-of bootstraps from
// the primary's snapshot, follows its oplog (reconnecting, and
// re-bootstrapping after a primary restart), serves reads locally on
// every transport, and forwards writes to the primary. Reads on a
// replica may lag the primary briefly; see internal/server/replica.go
// for the exact guarantees. Point rsmi-loadgen at several replicas with
// a comma-separated -addr list to hedge reads across them.
//
// # Observability
//
// Every server exposes GET /metrics in Prometheus text format (request
// counts and latency histograms per operation and transport, block
// accesses, replication lag, rebuild state — no client library
// involved), /healthz for liveness, and /readyz for readiness (a replica
// is ready only while within -ready-max-lag oplog records of its
// primary). -trace-sample N traces one in N requests through the
// admission → decode → plan → execute → encode pipeline (plan on SQL and
// planner-served requests only); -slow-query D additionally logs every
// request slower than D as a JSON line on stderr with the full stage
// breakdown, rate-capped by -slow-query-rate. Any client can request a
// trace for its own query regardless of sampling: ?explain=1 on the JSON
// endpoints, the EXPLAIN flag bit in rsmibin (see rsmi-loadgen
// -explain-sample). The untraced request path adds no allocations. -pprof
// serves net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		streamAddr  = flag.String("stream-addr", "", "rsmistream TCP listen address (rsmibin/1 over persistent pipelined connections; empty disables)")
		streamRTO   = flag.Duration("stream-request-timeout", 0, "server-side per-request deadline on the stream transport (0 = none)")
		engine      = flag.String("engine", "sharded", "backend: sharded|rstar|grid|kdb (one lock over one RSMI is -shards 1)")
		planner     = flag.Bool("planner", false, "serve every backend (sharded RSMI + rstar + grid + kdb) behind the cost-based query planner; enables routed /v1/sql")
		datasetPath = flag.String("dataset", "", "binary point file (rsmi-datagen format); empty generates -dist/-n")
		dist        = flag.String("dist", "skewed", "generated distribution: uniform|normal|skewed|tiger|osm")
		n           = flag.Int("n", 100000, "generated data set cardinality")
		seed        = flag.Int64("seed", 1, "generation and training seed")
		shards      = flag.Int("shards", 0, "shard count for -engine sharded (default GOMAXPROCS; 1 is one lock over one RSMI)")
		epochs      = flag.Int("epochs", 30, "training epochs per sub-model (paper: 500)")
		lr          = flag.Float64("lr", 0.1, "training learning rate (paper: 0.01)")
		maxInflight = flag.Int("max-inflight", 1024, "admitted in-flight requests before 429 shedding")
		snapshot    = flag.String("snapshot", "", "index snapshot, -engine sharded only: load if present, else build and save")
		replicaOf   = flag.String("replica-of", "", "primary HTTP address to replicate; this server bootstraps from its snapshot, follows its oplog, serves reads locally, and forwards writes")
		oplogCap    = flag.Int("oplog-cap", 0, "primary oplog retention in records (default 65536); a replica further behind re-bootstraps")
		traceSample = flag.Int("trace-sample", 0, "trace one in N requests into /v1/stats stage timings (0 = only explicit EXPLAIN requests)")
		slowQuery   = flag.Duration("slow-query", 0, "log requests slower than this as JSON lines on stderr; forces tracing of every request (0 disables)")
		slowRate    = flag.Float64("slow-query-rate", 10, "max slow-query log lines per second")
		readyMaxLag = flag.Uint64("ready-max-lag", 0, "replica /readyz lag threshold in oplog records (default 1024)")
		pprofFlag   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes heap and symbol contents)")
		subOutbox   = flag.Int("sub-outbox", 0, "per-connection standing-query outbox in notifications; a full outbox drops and marks (default 256)")
		noSubs      = flag.Bool("no-subs", false, "disable standing-query subscriptions (SUB frames answer 501)")
	)
	flag.Parse()
	log.SetPrefix("rsmi-serve: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var (
		eng        server.Engine
		repl       *server.Replicator
		rep        *server.Replica
		shardedIdx *rsmi.Sharded
		err        error
	)
	if *replicaOf != "" {
		// Replica role: no local build — bootstrap from the primary's
		// snapshot, then follow its oplog. The primary may still be
		// starting (or training), so bootstrapping retries patiently.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "engine", "dataset", "dist", "n", "seed", "shards",
				"epochs", "lr", "snapshot", "oplog-cap":
				log.Printf("warning: -%s has no effect with -replica-of", f.Name)
			}
		})
		rep = server.NewReplica(*replicaOf, server.ReplicaOptions{})
		log.Printf("replica of %s: bootstrapping", *replicaOf)
		for attempt := 1; ; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err = rep.Bootstrap(ctx)
			cancel()
			if err == nil {
				break
			}
			if attempt >= 120 {
				log.Fatalf("bootstrap: %v (giving up after %d attempts)", err, attempt)
			}
			log.Printf("bootstrap: %v (retrying)", err)
			time.Sleep(time.Second)
		}
		rep.Start()
		eng = rep.Engine()
	} else if *planner {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "engine":
				log.Printf("warning: -engine has no effect with -planner (all backends are built)")
			case "snapshot":
				log.Fatalf("-snapshot is not supported with -planner (baselines rebuild from the data set)")
			}
		})
		eng, err = buildPlannerEngine(*datasetPath, *dist, *n, *seed, *shards, *epochs, *lr)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		warnIgnoredFlags(*engine)
		eng, err = buildEngine(*engine, *snapshot, *datasetPath, *dist, *n, *seed, *shards, *epochs, *lr)
		if err != nil {
			log.Fatal(err)
		}
		if idx, ok := eng.(*rsmi.Sharded); ok {
			// A sharded engine always serves as a replication primary:
			// the oplog tap is cheap, and replicas can attach at any time
			// (the feed needs -stream-addr).
			shardedIdx = idx
			repl = server.NewReplicator(idx, *oplogCap)
			eng = repl.Engine()
		}
	}
	log.Printf("engine ready: %s (n=%d, build/load %v)",
		eng.Name(), eng.Len(), eng.Stats().BuildTime.Round(time.Millisecond))

	// Observability: -slow-query turns on the structured slow-query log
	// (which forces tracing of every request — stage timings cannot be
	// reconstructed after the fact); -trace-sample alone traces 1-in-N.
	// Explicit EXPLAIN requests are always traced, observer or not.
	var slowLog *obs.SlowLog
	if *slowQuery > 0 {
		slowLog = obs.NewSlowLog(os.Stderr, *slowQuery, *slowRate)
		log.Printf("slow-query log on stderr: threshold %v, max %.0f lines/s", *slowQuery, *slowRate)
	}
	var observer *obs.Observer
	if slowLog != nil || *traceSample > 0 {
		observer = obs.NewObserver(*traceSample, slowLog)
	}
	if *pprofFlag {
		log.Printf("pprof endpoints on /debug/pprof/ (heap and symbol contents are exposed)")
	}

	srv := server.New(server.Config{
		Engine:               eng,
		MaxInFlight:          *maxInflight,
		StreamAddr:           *streamAddr,
		StreamRequestTimeout: *streamRTO,
		Replicator:           repl,
		Replica:              rep,
		Observer:             observer,
		ReadyMaxLag:          *readyMaxLag,
		EnablePprof:          *pprofFlag,
		SubOutbox:            *subOutbox,
		DisableSubs:          *noSubs,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s on http://%s (max-inflight=%d)", eng.Name(), l.Addr(), *maxInflight)
	log.Printf("wire protocols: application/json (default), %s (rsmibin/%d)",
		server.ContentTypeBinary, server.BinVersion)

	errCh := make(chan error, 2)
	if *streamAddr != "" {
		sl, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("stream transport on tcp://%s (rsmibin/%d over persistent connections; drive with rsmi-loadgen -transport tcp)",
			sl.Addr(), server.BinVersion)
		go func() { errCh <- srv.ServeStream(sl) }()
	}
	go func() { errCh <- srv.Serve(l) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("got %v; draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if rep != nil {
			rep.Stop()
		}
		if *snapshot != "" && shardedIdx != nil {
			if err := saveSnapshot(shardedIdx, *snapshot); err != nil {
				log.Printf("snapshot: %v", err)
			} else {
				log.Printf("snapshot saved to %s", *snapshot)
			}
		}
		log.Print("bye")
	case err := <-errCh:
		log.Fatal(err)
	}
}

// warnIgnoredFlags flags explicitly-set options a baseline engine cannot
// honour, so measured numbers are never attributed to configurations
// that were silently dropped: baselines have no training or sharding
// knobs.
func warnIgnoredFlags(engine string) {
	if engine == "sharded" {
		return
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards", "epochs", "lr":
			log.Printf("warning: -%s has no effect with -engine %s", f.Name, engine)
		}
	})
}

// loadPoints resolves the data set: a point file, or a generated
// distribution.
func loadPoints(datasetPath, dist string, n int, seed int64) ([]rsmi.Point, error) {
	if datasetPath != "" {
		pts, err := dataset.LoadFile(datasetPath)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded %d points from %s", len(pts), datasetPath)
		return pts, nil
	}
	kind, err := dataset.Parse(dist)
	if err != nil {
		return nil, err
	}
	pts := dataset.Generate(kind, n, seed)
	log.Printf("generated %d %s points (seed %d)", len(pts), kind, seed)
	return pts, nil
}

// buildEngine resolves -engine: the sharded RSMI (with snapshot support),
// or a baseline behind one RWMutex — every one a server.Engine, so the
// serving stack is identical whatever the backend.
func buildEngine(engine, snapshot, datasetPath, dist string, n int, seed int64, shards int, epochs int, lr float64) (server.Engine, error) {
	if snapshot != "" && engine != "sharded" {
		return nil, fmt.Errorf("-snapshot is only supported with -engine sharded (got %q)", engine)
	}
	if engine == "sharded" {
		return buildOrLoadSharded(snapshot, datasetPath, dist, n, seed, shards, epochs, lr)
	}
	pts, err := loadPoints(datasetPath, dist, n, seed)
	if err != nil {
		return nil, err
	}
	log.Printf("building %s baseline engine (%d points)...", engine, len(pts))
	eng, err := rsmi.NewBaselineEngine(engine, pts)
	if err != nil {
		return nil, fmt.Errorf("-engine: %v (or sharded; one lock over one RSMI is -engine sharded -shards 1)", err)
	}
	return eng, nil
}

// buildPlannerEngine builds the cost-based router: the sharded RSMI as
// the primary backend plus every baseline over the same point set, a
// statistics store sampled from the data, and calibrated per-backend
// cost models (a micro-probe grid; tens of milliseconds per backend).
func buildPlannerEngine(datasetPath, dist string, n int, seed int64, shards int, epochs int, lr float64) (server.Engine, error) {
	pts, err := loadPoints(datasetPath, dist, n, seed)
	if err != nil {
		return nil, err
	}
	log.Printf("building sharded index (%d points, epochs=%d)...", len(pts), epochs)
	primary := rsmi.NewSharded(pts, rsmi.ShardOptions{
		Shards: shards,
		Index: rsmi.Options{
			Epochs:       epochs,
			LearningRate: lr,
			Seed:         seed,
		},
	})
	backends := []rsmi.Engine{primary}
	for _, name := range []string{"rstar", "grid", "kdb"} {
		log.Printf("building %s baseline engine (%d points)...", name, len(pts))
		b, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	me, err := plan.NewMultiEngine(plan.NewStats(pts), backends...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := me.Calibrate(context.Background()); err != nil {
		return nil, err
	}
	log.Printf("planner cost models calibrated over %d backends in %v",
		len(backends), time.Since(start).Round(time.Millisecond))
	return me, nil
}

// buildOrLoadSharded resolves the sharded engine: snapshot if present,
// else a fresh build from the data set (saved back when -snapshot names a
// path).
func buildOrLoadSharded(snapshot, datasetPath, dist string, n int, seed int64, shards int, epochs int, lr float64) (*rsmi.Sharded, error) {
	if snapshot != "" {
		if f, err := os.Open(snapshot); err == nil {
			defer f.Close()
			log.Printf("loading snapshot %s", snapshot)
			return rsmi.LoadSharded(f)
		}
		log.Printf("snapshot %s not found; building", snapshot)
	}
	pts, err := loadPoints(datasetPath, dist, n, seed)
	if err != nil {
		return nil, err
	}
	log.Printf("building sharded index (%d points, epochs=%d)...", len(pts), epochs)
	idx := rsmi.NewSharded(pts, rsmi.ShardOptions{
		Shards: shards,
		Index: rsmi.Options{
			Epochs:       epochs,
			LearningRate: lr,
			Seed:         seed,
		},
	})
	if snapshot != "" {
		if err := saveSnapshot(idx, snapshot); err != nil {
			return nil, err
		}
		log.Printf("snapshot saved to %s", snapshot)
	}
	return idx, nil
}

// saveSnapshot writes the index atomically (tmp + rename), so a crash
// mid-save never corrupts an existing snapshot.
func saveSnapshot(idx *rsmi.Sharded, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := idx.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
