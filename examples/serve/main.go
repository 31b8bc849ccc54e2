// Example serve: run the HTTP serving subsystem in-process — build a
// sharded index, serve it on a loopback port, drive it with the Go
// client (single ops and a batch) over both wire protocols (JSON and
// the rsmibin/1 binary encoding), then shut down gracefully.
//
//	go run ./examples/serve
//
// For a standalone server and load generator, see cmd/rsmi-serve and
// cmd/rsmi-loadgen (rsmi-loadgen -proto binary drives rsmibin/1).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/server"
	"rsmi/internal/shard"
	"rsmi/internal/wire"
)

func main() {
	pts := dataset.Generate(dataset.Skewed, 20000, 1)
	eng := shard.New(pts, shard.Options{
		Shards: 4,
		Index:  core.Options{Epochs: 20, LearningRate: 0.1, Seed: 1},
	})

	srv := server.New(server.Config{Engine: eng})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	fmt.Printf("serving %d points on http://%s\n", eng.Len(), l.Addr())

	ctx := context.Background()
	cl := server.NewClient(l.Addr().String())

	// Single operations over the wire.
	found, err := cl.PointQuery(ctx, pts[4242])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point query (indexed point): found=%v\n", found)

	win := geom.RectAround(pts[7], 0.02, 0.02)
	inWin, err := cl.WindowQuery(ctx, win)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window query: %d points in %v\n", len(inWin), win)

	nn, err := cl.KNN(ctx, geom.Pt(0.5, 0.1), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kNN: %d neighbours, nearest %v\n", len(nn), nn[0])

	// The SQL front-end compiles spatial SQL into the same query plans;
	// WithExplain surfaces the server-side trace, plan included.
	var tj *wire.TraceJSON
	sqlPts, err := cl.SQL(ctx,
		"SELECT * FROM points WHERE ST_Within(pt, BOX(0.4, 0.2, 0.44, 0.28)) ORDER BY ST_Distance(pt, POINT(0.42, 0.24)) LIMIT 3",
		server.WithExplain(&tj))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sql: %d points, executed by %s\n", len(sqlPts), tj.Plan.Backend)

	// A heterogeneous batch: one round-trip, one engine batch call per
	// query kind.
	res, err := cl.Batch(ctx, []wire.BatchOp{
		{Op: wire.OpInsert, X: 0.42, Y: 0.24},
		{Op: wire.OpPoint, X: 0.42, Y: 0.24},
		{Op: wire.OpKNN, X: 0.42, Y: 0.24, K: 3},
		{Op: wire.OpWindow, MinX: 0.4, MinY: 0.2, MaxX: 0.44, MaxY: 0.28},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: insert ok=%v, point found=%v, knn %d points, window %d points\n",
		res[0].OK, res[1].Found, len(res[2].Points), res[3].Count)

	// The same server speaks rsmibin/1: a binary client sees identical
	// answers, just cheaper on the wire (no JSON encode/decode per point).
	binCl := server.NewClient(l.Addr().String(), server.WithProto(server.ProtoBinary))
	binWin, err := binCl.WindowQuery(ctx, win)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary client (%s): window query agrees with JSON: %v\n",
		binCl.Proto(), len(binWin) == len(inWin))

	st, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d points on %d shards, %d block accesses, window p50 %.0fµs\n",
		st.Points, st.Shards, st.BlockAccesses, st.Ops[wire.OpWindow].P50us)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and shut down")
}
