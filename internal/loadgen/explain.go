package loadgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"text/tabwriter"

	"rsmi/internal/geom"
	"rsmi/internal/server"
)

// stageOrder is the pipeline order for the EXPLAIN table columns; any
// stage the server reports beyond these is appended alphabetically.
var stageOrder = []string{"admission", "decode", "plan", "execute", "encode"}

// ExplainRow aggregates the EXPLAIN samples of one operation kind.
type ExplainRow struct {
	Op string
	// N is how many sampled queries of this op contributed.
	N int
	// TotalUs is the mean summed stage time per query in microseconds.
	TotalUs float64
	// StageUs is the mean time per stage in microseconds (stages the
	// server did not report are absent, not zero).
	StageUs map[string]float64
	// Shards and Accesses are mean shards visited and block accesses
	// per query — the paper's cost metric, measured per request.
	Shards   float64
	Accesses float64
}

// ExplainReport is the aggregated outcome of ExplainSamples.
type ExplainReport struct {
	Rows []ExplainRow
}

// String renders the stage-breakdown table.
func (r ExplainReport) String() string {
	stages := presentStages(r.Rows)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "op\tn\t")
	for _, st := range stages {
		fmt.Fprintf(tw, "%s_us\t", st)
	}
	fmt.Fprint(tw, "total_us\tshards\taccesses\t\n")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t", row.Op, row.N)
		for _, st := range stages {
			if us, ok := row.StageUs[st]; ok {
				fmt.Fprintf(tw, "%.1f\t", us)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.1f\t\n", row.TotalUs, row.Shards, row.Accesses)
	}
	tw.Flush()
	return strings.TrimRight(b.String(), "\n")
}

// presentStages returns the union of reported stages in pipeline order.
func presentStages(rows []ExplainRow) []string {
	seen := map[string]bool{}
	for _, row := range rows {
		for st := range row.StageUs {
			seen[st] = true
		}
	}
	var out []string
	for _, st := range stageOrder {
		if seen[st] {
			out = append(out, st)
			delete(seen, st)
		}
	}
	var extra []string
	for st := range seen {
		extra = append(extra, st)
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// ExplainSamples issues n EXPLAIN-flagged read queries against the first
// configured target — the same query distribution as the load run's read
// mix — and aggregates the per-stage breakdowns the server returns.
// EXPLAIN rides the regular wire protocols (?explain=1 on JSON, the
// rsmibin flag bit elsewhere), so the sampled queries measure the real
// serving path, traced.
func ExplainSamples(cfg Config, n int) (ExplainReport, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return ExplainReport{}, nil
	}
	reads := Mix{Point: cfg.Mix.Point, Window: cfg.Mix.Window, KNN: cfg.Mix.KNN, SQL: cfg.Mix.SQL}
	if reads.total() == 0 {
		// A write-only mix still gets a useful sample: EXPLAIN exists
		// for queries, so fall back to the default read weights.
		reads = Mix{Point: DefaultMix.Point, Window: DefaultMix.Window, KNN: DefaultMix.KNN}
	}
	cl := server.NewClient(cfg.Addrs[0],
		server.WithProto(cfg.Proto),
		server.WithTransport(cfg.Transport),
		server.WithTimeout(cfg.Timeout))
	defer cl.Close()

	rng := rand.New(rand.NewSource(cfg.Seed + 104729))
	w := math.Sqrt(cfg.WindowFrac)
	ctx := context.Background()
	agg := map[string]*ExplainRow{}
	var lastErr error
	ok := 0
	for i := 0; i < n; i++ {
		var (
			op string
			tj *server.TraceJSON
			er error
		)
		p := geom.Pt(rng.Float64(), rng.Float64())
		switch r := rng.Intn(reads.total()); {
		case r < reads.Point:
			op = server.OpPoint
			_, er = cl.PointQuery(ctx, p, server.WithExplain(&tj))
		case r < reads.Point+reads.Window:
			op = server.OpWindow
			q := geom.RectAround(p, w, w)
			_, er = cl.WindowQuery(ctx, q, server.WithExplain(&tj))
		case r < reads.Point+reads.Window+reads.KNN:
			op = server.OpKNN
			_, er = cl.KNN(ctx, p, cfg.K, server.WithExplain(&tj))
		default:
			op = server.OpSQL
			_, er = cl.SQL(ctx, randomSQL(cfg, rng, p, w), server.WithExplain(&tj))
		}
		if er != nil {
			lastErr = er
			continue
		}
		if tj == nil {
			lastErr = fmt.Errorf("loadgen: server answered %s without a trace", op)
			continue
		}
		ok++
		row := agg[op]
		if row == nil {
			row = &ExplainRow{Op: op, StageUs: map[string]float64{}}
			agg[op] = row
		}
		row.N++
		row.Shards += float64(tj.ShardsVisited)
		row.Accesses += float64(tj.BlockAccesses)
		for _, st := range tj.Stages {
			row.StageUs[st.Stage] += st.Us
			row.TotalUs += st.Us
		}
	}
	if ok == 0 {
		return ExplainReport{}, fmt.Errorf("loadgen: no EXPLAIN sample succeeded: %v", lastErr)
	}
	var rep ExplainReport
	for _, op := range []string{server.OpPoint, server.OpWindow, server.OpKNN, server.OpSQL} {
		row, present := agg[op]
		if !present {
			continue
		}
		inv := 1 / float64(row.N)
		row.TotalUs *= inv
		row.Shards *= inv
		row.Accesses *= inv
		for st := range row.StageUs {
			row.StageUs[st] *= inv
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}
