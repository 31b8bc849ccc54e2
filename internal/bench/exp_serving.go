package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/loadgen"
	"rsmi/internal/server"
	"rsmi/internal/shard"
)

// This file implements the serving experiment: operations/sec and tail
// latency of the HTTP serving subsystem (internal/server) under
// closed-loop clients, comparing one-query-per-request execution against
// client-side /v1/batch requests, plus the admission-control behaviour at
// saturation. It is not a paper artefact; it measures the serving layer
// EXPERIMENTS.md ("Serving") reports. (Its server-side micro-batching
// rows went with the mechanism: EXPERIMENTS.md "Direct execution" keeps
// their last measurement.)

// servingCell runs one loadgen measurement against a running server.
func servingCell(addr string, clients, batch int, dur time.Duration) loadgen.Report {
	return protoCell(addr, clients, batch, dur, server.ProtoJSON)
}

// protoCell is servingCell with an explicit wire protocol.
func protoCell(addr string, clients, batch int, dur time.Duration, proto server.Proto) loadgen.Report {
	// A dead server yields a zero report, which the table shows.
	rep, _ := loadgen.Run(loadgen.Config{
		Addr:       addr,
		Clients:    clients,
		Duration:   dur,
		Mix:        loadgen.Mix{Window: 1},
		BatchSize:  batch,
		WindowFrac: 0.0001,
		Proto:      proto,
	})
	return rep
}

// streamCell runs one measurement over the TCP stream transport.
func streamCell(streamAddr string, clients, batch int, dur time.Duration) loadgen.Report {
	rep, _ := loadgen.Run(loadgen.Config{
		Addr:       streamAddr,
		Clients:    clients,
		Duration:   dur,
		Mix:        loadgen.Mix{Window: 1},
		BatchSize:  batch,
		WindowFrac: 0.0001,
		Transport:  server.TransportTCP,
	})
	return rep
}

// startServing spins up a Server for eng on ephemeral HTTP and stream
// ports and returns both addresses and a stop func.
func startServing(eng server.Engine, maxInflight int) (addr, streamAddr string, stop func(), err error) {
	srv := server.New(server.Config{Engine: eng, MaxInFlight: maxInflight})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", nil, err
	}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return "", "", nil, err
	}
	go srv.Serve(l)
	go srv.ServeStream(sl)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		l.Close()
	}
	return l.Addr().String(), sl.Addr().String(), stop, nil
}

func init() {
	register(Experiment{
		ID:    "serving",
		Title: "Serving: batched execution vs one-query-per-request over HTTP",
		Run: func(cfg Config, w io.Writer) {
			cfg = cfg.Defaults()
			pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
			shardOpts := cfg.rsmiOptions()
			shardOpts.PartitionThreshold = 0 // auto per-shard threshold
			eng := shard.New(pts, shard.Options{Shards: cfg.Shards, Index: shardOpts})

			clients := append([]int{1}, shardSweep(cfg.Goroutines)...)
			cell := cfg.cellDuration(400 * time.Millisecond)

			rows := []struct {
				name  string
				batch int // client-side ops per request
			}{
				{"per-request (no batching)", 1},
				{"client batch=16", 16},
			}
			header := []string{"serving mode"}
			for _, c := range clients {
				header = append(header, fmt.Sprintf("c=%d", c))
			}
			thr := newTable(fmt.Sprintf(
				"Window-query serving throughput (kops/s), %s n=%d, S=%d shards",
				cfg.Dist, cfg.N, cfg.Shards), header...)
			p99 := newTable("Per-request p99 latency (ms); a batched request carries its whole batch", header...)
			addr, _, stop, err := startServing(eng, 1024)
			if err != nil {
				fmt.Fprintf(w, "serving: %v\n", err)
				return
			}
			for _, r := range rows {
				var tVals, lVals []float64
				for _, c := range clients {
					rep := servingCell(addr, c, r.batch, cell)
					tVals = append(tVals, rep.OpsPerSec/1e3)
					lVals = append(lVals, float64(rep.P99.Microseconds())/1e3)
				}
				thr.addf(r.name, "%.1f", tVals...)
				p99.addf(r.name, "%.2f", lVals...)
			}
			stop()
			thr.write(w)
			p99.write(w)

			// Saturation: a deliberately tiny admission bound sheds load
			// with 429 instead of queueing it; the surviving requests keep
			// a bounded p99.
			shedTb := newTable("Admission control at saturation (max-inflight=2)",
				"clients", "ops/s", "shed rate", "p99 (ms)")
			addr, _, stop, err = startServing(eng, 2)
			if err != nil {
				fmt.Fprintf(w, "serving: %v\n", err)
				return
			}
			for _, c := range clients {
				rep := servingCell(addr, c, 1, cell)
				shedTb.add(fmt.Sprintf("%d", c),
					fmt.Sprintf("%.0f", rep.OpsPerSec),
					fmt.Sprintf("%.1f%%", 100*rep.ShedRate()),
					fmt.Sprintf("%.2f", float64(rep.P99.Microseconds())/1e3))
			}
			stop()
			shedTb.write(w)

			// Wire protocols and transports: the same window workload over
			// HTTP JSON, HTTP rsmibin, and rsmibin over the persistent TCP
			// stream, per-request and batched. The JSON→binary gap is the
			// serialisation cost the binary protocol removes; the
			// HTTP→stream gap is the HTTP framing the stream transport
			// sheds.
			protoTb := newTable(fmt.Sprintf(
				"Transport × protocol: HTTP JSON vs HTTP rsmibin vs TCP stream (window queries, c=4, %s n=%d)",
				cfg.Dist, cfg.N),
				"transport", "ops/s", "p50 (µs)", "p95 (µs)")
			addr, streamAddr, stop, err := startServing(eng, 1024)
			if err != nil {
				fmt.Fprintf(w, "serving: %v\n", err)
				return
			}
			for _, pr := range []struct {
				name   string
				proto  server.Proto
				stream bool
				batch  int
			}{
				{"http json", server.ProtoJSON, false, 1},
				{"http binary", server.ProtoBinary, false, 1},
				{"tcp stream", "", true, 1},
				{"http json", server.ProtoJSON, false, 32},
				{"http binary", server.ProtoBinary, false, 32},
				{"tcp stream", "", true, 32},
			} {
				var rep loadgen.Report
				if pr.stream {
					rep = streamCell(streamAddr, 4, pr.batch, cell)
				} else {
					rep = protoCell(addr, 4, pr.batch, cell, pr.proto)
				}
				protoTb.add(fmt.Sprintf("%s batch=%d", pr.name, pr.batch),
					fmt.Sprintf("%.0f", rep.OpsPerSec),
					fmt.Sprintf("%d", rep.P50.Microseconds()),
					fmt.Sprintf("%d", rep.P95.Microseconds()))
			}
			stop()
			protoTb.write(w)

			// Serving across backends: the same wire stack over every
			// engine the v2 rsmi.Engine API admits — the sharded RSMI and
			// the paper's baseline indexes behind their adapters. Same
			// workload, same transports, same pipeline: the comparative
			// serving numbers the learned-index serving literature asks
			// for.
			engTb := newTable(fmt.Sprintf(
				"Serving across backends (window queries, c=4, %s n=%d)",
				cfg.Dist, cfg.N),
				"engine", "json b=1 ops/s", "binary b=32 ops/s", "stream b=32 ops/s", "stream b=32 p50 (µs)")
			for _, e := range []struct {
				name string
				eng  server.Engine
			}{
				{"Sharded RSMI", eng},
				{"R*-tree", rsmi.NewRStarEngine(pts, 0)},
				{"Grid File", rsmi.NewGridFileEngine(pts, 0)},
				{"K-D-B-tree", rsmi.NewKDBEngine(pts, 0)},
			} {
				addr, streamAddr, stop, err := startServing(e.eng, 1024)
				if err != nil {
					fmt.Fprintf(w, "serving: %v\n", err)
					return
				}
				perOp := protoCell(addr, 4, 1, cell, server.ProtoJSON)
				binB := protoCell(addr, 4, 32, cell, server.ProtoBinary)
				strB := streamCell(streamAddr, 4, 32, cell)
				stop()
				engTb.add(e.name,
					fmt.Sprintf("%.0f", perOp.OpsPerSec),
					fmt.Sprintf("%.0f", binB.OpsPerSec),
					fmt.Sprintf("%.0f", strB.OpsPerSec),
					fmt.Sprintf("%d", strB.P50.Microseconds()))
			}
			engTb.write(w)
			fmt.Fprintf(w, "\n  (closed-loop clients over loopback; \"client batch\" = /v1/batch\n   requests, \"tcp stream\" = rsmibin/1 over persistent pipelined\n   connections)\n")
		},
	})
}
