package loadgen

import (
	"context"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/server"
	"rsmi/internal/shard"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("window=90, insert=10")
	if err != nil {
		t.Fatal(err)
	}
	if m.Window != 90 || m.Insert != 10 || m.Point != 0 {
		t.Fatalf("parsed %+v", m)
	}
	if got, err := ParseMix(m.String()); err != nil || got != m {
		t.Fatalf("round-trip: %+v, %v", got, err)
	}
	for _, bad := range []string{"", "window", "window=-1", "teleport=5", "window=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestRunAgainstServer drives a real in-process server for a few hundred
// milliseconds, in both single-op and batched mode, and checks the report
// adds up: all requests 2xx, ops counted, percentiles populated.
func TestRunAgainstServer(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 2000, 71)
	eng := shard.New(pts, shard.Options{
		Shards: 2,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 500,
			Epochs:             10,
			LearningRate:       0.1,
			Seed:               1,
		},
	})
	srv := server.New(server.Config{Engine: eng})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		l.Close()
	}()

	for _, batch := range []int{1, 8} {
		rep, err := Run(Config{
			Addr:      l.Addr().String(),
			Clients:   3,
			Duration:  300 * time.Millisecond,
			BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("Run(batch=%d): %v", batch, err)
		}
		if rep.Requests == 0 || rep.OK != rep.Requests || rep.Errors != 0 {
			t.Fatalf("batch=%d report: %+v", batch, rep)
		}
		if rep.Ops != rep.OK*int64(batch) {
			t.Fatalf("batch=%d: ops %d, want %d", batch, rep.Ops, rep.OK*int64(batch))
		}
		if rep.OKRate() != 1 || rep.ShedRate() != 0 {
			t.Fatalf("batch=%d rates: ok=%v shed=%v", batch, rep.OKRate(), rep.ShedRate())
		}
		if rep.P50 == 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
			t.Fatalf("batch=%d percentiles: %+v", batch, rep)
		}
	}
}

// TestRunBinaryProto drives the same server over rsmibin/1, single-op
// and batched, and checks the run is clean — the protocol switch must
// not change loadgen semantics.
func TestRunBinaryProto(t *testing.T) {
	addr, cleanup := startLoadgenServer(t)
	defer cleanup()
	for _, batch := range []int{1, 8} {
		rep, err := Run(Config{
			Addr:      addr,
			Clients:   3,
			Duration:  300 * time.Millisecond,
			BatchSize: batch,
			Proto:     server.ProtoBinary,
		})
		if err != nil {
			t.Fatalf("Run(binary, batch=%d): %v", batch, err)
		}
		if rep.Proto != server.ProtoBinary {
			t.Fatalf("report proto = %q", rep.Proto)
		}
		if rep.Requests == 0 || rep.OK != rep.Requests || rep.Errors != 0 {
			t.Fatalf("binary batch=%d report: %+v", batch, rep)
		}
		if rep.Ops != rep.OK*int64(batch) {
			t.Fatalf("binary batch=%d: ops %d, want %d", batch, rep.Ops, rep.OK*int64(batch))
		}
	}
}

// TestRunOpenLoop checks the -rate mode: the request count tracks the
// arrival schedule (not the client count), and the run is clean.
func TestRunOpenLoop(t *testing.T) {
	addr, cleanup := startLoadgenServer(t)
	defer cleanup()
	const rate, dur = 200.0, 500 * time.Millisecond
	rep, err := Run(Config{
		Addr:     addr,
		Clients:  4,
		Duration: dur,
		Rate:     rate,
		Mix:      Mix{Window: 1},
	})
	if err != nil {
		t.Fatalf("Run(open-loop): %v", err)
	}
	if rep.OfferedRate != rate {
		t.Fatalf("report rate = %v", rep.OfferedRate)
	}
	if rep.Errors != 0 || rep.OK != rep.Requests {
		t.Fatalf("open-loop report: %+v", rep)
	}
	// The schedule admits ~rate*dur arrivals; allow generous slack for a
	// loaded CI machine (workers issue overdue arrivals immediately, so
	// only an early deadline can lose them).
	want := rate * dur.Seconds()
	if float64(rep.Requests) < 0.5*want || float64(rep.Requests) > 1.2*want {
		t.Fatalf("open-loop issued %d requests, schedule says ~%.0f", rep.Requests, want)
	}
}

// TestRunRejectsBadRate pins the open-loop rate bounds: a rate whose
// arrival interval would truncate to zero (or is not a number at all)
// must error out instead of looping forever.
func TestRunRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-1, math.Inf(1), math.NaN(), 2e9, 1e-10} {
		if _, err := Run(Config{Addr: "127.0.0.1:1", Duration: 50 * time.Millisecond, Rate: rate}); err == nil {
			t.Errorf("Run accepted rate %v", rate)
		}
	}
}

// startLoadgenServer boots an in-process server for loadgen tests.
func startLoadgenServer(t *testing.T) (string, func()) {
	t.Helper()
	addr, _, cleanup := startLoadgenServerStream(t)
	return addr, cleanup
}

// startLoadgenServerStream boots a server with both an HTTP and a stream
// listener.
func startLoadgenServerStream(t *testing.T) (addr, streamAddr string, cleanup func()) {
	t.Helper()
	pts := dataset.Generate(dataset.Uniform, 2000, 71)
	eng := shard.New(pts, shard.Options{
		Shards: 2,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 500,
			Epochs:             10,
			LearningRate:       0.1,
			Seed:               1,
		},
	})
	srv := server.New(server.Config{Engine: eng})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	go srv.ServeStream(sl)
	return l.Addr().String(), sl.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		l.Close()
	}
}

// TestRunTCPTransport drives the stream transport end to end, single-op
// and batched: clean runs, ops counted, and the report labelled tcp.
func TestRunTCPTransport(t *testing.T) {
	_, streamAddr, cleanup := startLoadgenServerStream(t)
	defer cleanup()
	for _, batch := range []int{1, 8} {
		rep, err := Run(Config{
			Addr:      streamAddr,
			Clients:   3,
			Duration:  300 * time.Millisecond,
			BatchSize: batch,
			Transport: server.TransportTCP,
		})
		if err != nil {
			t.Fatalf("Run(tcp, batch=%d): %v", batch, err)
		}
		if rep.Transport != server.TransportTCP || rep.Proto != server.ProtoBinary {
			t.Fatalf("report transport=%q proto=%q", rep.Transport, rep.Proto)
		}
		if rep.Requests == 0 || rep.OK != rep.Requests || rep.Errors != 0 {
			t.Fatalf("tcp batch=%d report: %+v", batch, rep)
		}
		if rep.Ops != rep.OK*int64(batch) {
			t.Fatalf("tcp batch=%d: ops %d, want %d", batch, rep.Ops, rep.OK*int64(batch))
		}
	}
}

// TestRunAgainstDeadServer must fail cleanly, not hang.
func TestRunAgainstDeadServer(t *testing.T) {
	_, err := Run(Config{
		Addr:     "127.0.0.1:1", // nothing listens on port 1
		Clients:  1,
		Duration: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Run against dead server reported success")
	}
}

// TestExplainSamples drives the EXPLAIN sampler over every protocol and
// transport against the same server and checks the aggregated report:
// read ops only, execute stage present, block accesses positive (the
// paper's cost metric must survive aggregation), and a rendered table.
func TestExplainSamples(t *testing.T) {
	addr, streamAddr, cleanup := startLoadgenServerStream(t)
	defer cleanup()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"json", Config{Addr: addr}},
		{"binary", Config{Addr: addr, Proto: server.ProtoBinary}},
		{"stream", Config{Addr: streamAddr, Transport: server.TransportTCP}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ExplainSamples(tc.cfg, 12)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows aggregated")
			}
			for _, row := range rep.Rows {
				switch row.Op {
				case server.OpPoint, server.OpWindow, server.OpKNN:
				default:
					t.Errorf("non-read op %q sampled", row.Op)
				}
				if row.N <= 0 {
					t.Errorf("%s: N = %d", row.Op, row.N)
				}
				if _, ok := row.StageUs["execute"]; !ok {
					t.Errorf("%s: no execute stage: %v", row.Op, row.StageUs)
				}
				if row.Accesses <= 0 && row.Op != server.OpPoint {
					t.Errorf("%s: mean accesses = %v, want > 0", row.Op, row.Accesses)
				}
				if row.Shards < 1 {
					t.Errorf("%s: mean shards = %v, want >= 1", row.Op, row.Shards)
				}
			}
			table := rep.String()
			for _, want := range []string{"op", "execute_us", "shards", "accesses"} {
				if !strings.Contains(table, want) {
					t.Errorf("table lacks %q:\n%s", want, table)
				}
			}
		})
	}

	// A write-only mix falls back to read queries rather than sampling
	// nothing.
	rep, err := ExplainSamples(Config{Addr: addr, Mix: Mix{Insert: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("write-only mix: no rows")
	}

	// n <= 0 is a no-op, not an error.
	if rep, err := ExplainSamples(Config{Addr: addr}, 0); err != nil || len(rep.Rows) != 0 {
		t.Fatalf("n=0: %+v, %v", rep, err)
	}
}
