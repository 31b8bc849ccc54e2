// Command rsmi-loadgen drives an rsmi-serve endpoint with closed-loop or
// open-loop clients and reports throughput, status mix (2xx / shed /
// errors), and per-request latency percentiles, over either wire
// protocol.
//
// Usage:
//
//	rsmi-loadgen -addr 127.0.0.1:8080 -clients 8 -duration 5s
//	rsmi-loadgen -mix window=90,insert=10 -batch 16
//	rsmi-loadgen -proto binary -batch 32           # rsmibin/1 instead of JSON
//	rsmi-loadgen -transport tcp -addr 127.0.0.1:8081  # rsmistream (serve -stream-addr)
//	rsmi-loadgen -rate 5000 -clients 32            # open-loop: 5000 req/s arrivals
//	rsmi-loadgen -duration 2s -min-ok 1.0          # CI smoke: exit 1 unless 100% 2xx
//	rsmi-loadgen -addr 127.0.0.1:8080,127.0.0.1:8090 -hedge-delay 2ms  # hedged replica set
//	rsmi-loadgen -explain-sample 20                # EXPLAIN stage-breakdown table
//	rsmi-loadgen -mix sql=100                      # spatial SQL via POST /v1/sql
//
// The mix accepts point, window, knn, insert, delete, and sql weights.
// sql drives POST /v1/sql with generated spatial SQL statements (a
// rotation of window, distance-ordered window, and kNN queries — see
// internal/sqlfe for the dialect); aim it at rsmi-serve -planner to
// exercise cost-based routing. SQL is single-request only, so with
// -batch > 1 its weight folds into windows.
//
// -batch n groups n operations per /v1/batch request (one round-trip);
// -batch 1 sends one operation per request through the per-op endpoints.
// -transport tcp replaces HTTP with the persistent pipelined rsmistream
// connections (always rsmibin; -addr is the server's -stream-addr).
// -rate r switches from closed-loop (each client waits for its answer
// before the next request) to open-loop (requests arrive on a fixed
// r-per-second schedule; latency counts from the scheduled arrival).
//
// Giving -addr a comma-separated list (a primary and its replicas, see
// rsmi-serve -replica-of) drives the set through a hedged client: reads
// go to one target and are re-issued to a second after -hedge-delay (or
// immediately when the first target fails), first answer wins, loser
// cancelled; writes fail over. The report then carries hedge counts.
//
// -explain-sample n issues n EXPLAIN-flagged read queries after the run
// (drawn from the same mix) and prints a per-operation table of mean
// stage timings, shards visited, and block accesses — the quickest way
// to see where a query's time goes without touching the server's
// config. EXPLAIN works over every protocol and transport.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"rsmi/internal/loadgen"
	"rsmi/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "server address(es), comma-separated; 2+ enables hedged reads")
		hedge    = flag.Duration("hedge-delay", 0, "hedged-read delay with 2+ addresses (0 = default)")
		clients  = flag.Int("clients", 4, "client goroutines")
		duration = flag.Duration("duration", 2*time.Second, "run duration")
		mix      = flag.String("mix", loadgen.DefaultMix.String(), "operation mix (op=weight,...)")
		k        = flag.Int("k", 10, "kNN parameter")
		window   = flag.Float64("window-frac", 0.0001, "window area as a fraction of the data space")
		batch    = flag.Int("batch", 1, "operations per request (>1 uses /v1/batch)")
		seed     = flag.Int64("seed", 1, "query generation seed")
		proto    = flag.String("proto", "json", "HTTP wire protocol: json|binary (tcp transport is always binary)")
		trans    = flag.String("transport", "http", "transport: http|tcp (tcp = rsmistream persistent connections; -addr is the server's -stream-addr)")
		timeout  = flag.Duration("timeout", 0, "per-request client timeout (0 = default 30s)")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in requests/s (0 = closed-loop)")
		minOK    = flag.Float64("min-ok", -1, "exit 1 unless the 2xx rate reaches this fraction (e.g. 1.0)")
		explainN = flag.Int("explain-sample", 0, "after the run, issue this many EXPLAIN queries and print the per-stage breakdown table")
		subs     = flag.Int("subscribers", 0, "standing window queries held open for the run (tcp transport, single address); the report counts their notifications")
	)
	flag.Parse()
	log.SetPrefix("rsmi-loadgen: ")
	log.SetFlags(0)

	m, err := loadgen.ParseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}
	p, err := server.ParseProto(*proto)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := server.ParseTransport(*trans)
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("empty -addr")
	}
	rep, err := loadgen.Run(loadgen.Config{
		Addrs:       addrs,
		HedgeDelay:  *hedge,
		Clients:     *clients,
		Duration:    *duration,
		Mix:         m,
		K:           *k,
		WindowFrac:  *window,
		BatchSize:   *batch,
		Seed:        *seed,
		Proto:       p,
		Transport:   tr,
		Timeout:     *timeout,
		Rate:        *rate,
		Subscribers: *subs,
	})
	if err != nil {
		log.Fatal(err)
	}
	mode := "closed-loop run"
	if *rate > 0 {
		mode = "open-loop run"
	}
	scheme := "http"
	if tr == server.TransportTCP {
		scheme = "tcp"
	}
	fmt.Printf("%s against %s://%s (mix %s)\n%s\n", mode, scheme, strings.Join(addrs, ","), m, rep)
	if *explainN > 0 {
		er, err := loadgen.ExplainSamples(loadgen.Config{
			Addrs:      addrs[:1],
			Mix:        m,
			K:          *k,
			WindowFrac: *window,
			Seed:       *seed,
			Proto:      p,
			Transport:  tr,
			Timeout:    *timeout,
		}, *explainN)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("EXPLAIN sample (%d queries against %s, mean per query):\n%s\n", *explainN, addrs[0], er)
	}
	if *minOK >= 0 && rep.OKRate() < *minOK {
		log.Fatalf("2xx rate %.4f below required %.4f", rep.OKRate(), *minOK)
	}
}
