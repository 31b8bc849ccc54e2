package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
	"rsmi/internal/workload"
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parsePromText is a strict parser for the Prometheus text exposition
// format (0.0.4) as /metrics emits it: it rejects malformed names,
// labels, values, samples without a preceding TYPE, duplicate series,
// and TYPE lines without samples. It returns the samples and each
// metric's declared type.
func parsePromText(t *testing.T, body string) ([]promSample, map[string]string) {
	t.Helper()
	types := map[string]string{}
	helps := map[string]bool{}
	seen := map[string]bool{}
	var samples []promSample
	sampled := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			if _, dup := types[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			if !helps[parts[0]] {
				t.Fatalf("line %d: TYPE %s without preceding HELP", ln+1, parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil || math.IsNaN(val) {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valText, err)
		}
		name, labels := series, map[string]string{}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, series)
			}
			name = series[:i]
			for _, pair := range splitPromLabels(t, ln+1, series[i+1:len(series)-1]) {
				m := promLabelRe.FindStringSubmatch(pair)
				if m == nil {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				if _, dup := labels[m[1]]; dup {
					t.Fatalf("line %d: duplicate label %s", ln+1, m[1])
				}
				labels[m[1]] = m[2]
			}
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("line %d: malformed metric name %q", ln+1, name)
		}
		base := histBase(name)
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %s without a TYPE for %s", ln+1, name, base)
		}
		if seen[series] {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		seen[series] = true
		sampled[base] = true
		samples = append(samples, promSample{name: name, labels: labels, value: val})
	}
	for name := range types {
		if !sampled[name] {
			t.Errorf("TYPE %s declared but no samples emitted", name)
		}
	}
	return samples, types
}

// splitPromLabels splits `a="x",b="y"` on commas outside quotes.
func splitPromLabels(t *testing.T, ln int, s string) []string {
	t.Helper()
	if s == "" {
		t.Fatalf("line %d: empty label set {}", ln)
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// histBase strips a histogram sample suffix.
func histBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelKey renders a sample's labels (minus le) as a stable map key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, labels[k])
	}
	return b.String()
}

// checkHistograms asserts every histogram's invariants: cumulative
// buckets monotone in le, an +Inf bucket present and equal to _count,
// and a _sum sample for every label set.
func checkHistograms(t *testing.T, samples []promSample, types map[string]string) {
	t.Helper()
	type histAcc struct {
		buckets map[float64]float64 // le -> cumulative
		inf     *float64
		sum     *float64
		count   *float64
	}
	hists := map[string]*histAcc{} // base + labelKey
	acc := func(base string, lk string) *histAcc {
		k := base + "|" + lk
		if hists[k] == nil {
			hists[k] = &histAcc{buckets: map[float64]float64{}}
		}
		return hists[k]
	}
	for _, s := range samples {
		base := histBase(s.name)
		if types[base] != "histogram" {
			continue
		}
		a := acc(base, labelKey(s.labels))
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s bucket without le label", s.name)
			}
			if le == "+Inf" {
				v := s.value
				a.inf = &v
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", s.name, le)
			}
			a.buckets[b] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			v := s.value
			a.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			v := s.value
			a.count = &v
		default:
			t.Fatalf("histogram %s has a bare sample %s", base, s.name)
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histograms found")
	}
	for key, a := range hists {
		if a.inf == nil || a.sum == nil || a.count == nil {
			t.Fatalf("%s: missing +Inf/_sum/_count", key)
		}
		if *a.inf != *a.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", key, *a.inf, *a.count)
		}
		les := make([]float64, 0, len(a.buckets))
		for le := range a.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			if a.buckets[le] < prev {
				t.Errorf("%s: bucket le=%v cumulative %v < previous %v", key, le, a.buckets[le], prev)
			}
			prev = a.buckets[le]
		}
		if *a.inf < prev {
			t.Errorf("%s: +Inf %v below last bucket %v", key, *a.inf, prev)
		}
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("scrape: Content-Type %q, want %q", ct, metricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return string(body)
}

// TestMetricsExposition drives traffic through a server and validates
// the full /metrics page with the strict parser, including the required
// series and the histogram invariants.
func TestMetricsExposition(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Shutdown(context.Background())
	cl := NewClient(hs.URL)
	defer cl.Close()

	if _, err := cl.PointQuery(context.Background(), pts[0]); err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.Windows(pts, 4, 0.01, 1, 7) {
		if _, err := cl.WindowQuery(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Insert(context.Background(), geom.Pt(0.123, 0.456)); err != nil {
		t.Fatal(err)
	}
	// Three sequential round trips over the stream: three frames, each
	// alone in its write. Takeovers are not pinned: a deschedule longer
	// than the inline budget inside a frame is one.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeStream(l)
	scl := NewClient(l.Addr().String(), WithTransport(TransportTCP))
	defer scl.Close()
	for i := 0; i < 3; i++ {
		if _, err := scl.KNN(context.Background(), pts[i], 3); err != nil {
			t.Fatal(err)
		}
	}

	body := scrapeMetrics(t, hs.URL)
	samples, types := parsePromText(t, body)
	checkHistograms(t, samples, types)

	byName := map[string][]promSample{}
	for _, sm := range samples {
		byName[sm.name] = append(byName[sm.name], sm)
	}
	required := []string{
		"rsmi_build_info", "rsmi_uptime_seconds", "rsmi_points", "rsmi_shards",
		"rsmi_block_accesses_total", "rsmi_requests_in_flight", "rsmi_admission_shed_total",
		"rsmi_stream_frames_total", "rsmi_stream_flushes_total", "rsmi_stream_takeovers_total",
		"rsmi_op_requests_total", "rsmi_op_duration_seconds_bucket",
		"rsmi_plan_queries_total", "rsmi_plan_mispredicts_total",
		"rsmi_rebuilds_total", "rsmi_rebuild_running", "rsmi_rebuild_duration_seconds_bucket",
		"rsmi_replication_role", "rsmi_replication_lag_seq", "rsmi_replication_lag_seconds",
		"rsmi_oplog_capacity", "rsmi_oplog_headroom",
		"rsmi_slow_queries_logged_total", "rsmi_slow_queries_suppressed_total",
	}
	for _, name := range required {
		if len(byName[name]) == 0 {
			t.Errorf("required series %s absent", name)
		}
	}
	// Every family belongs to a subsystem this server has: a removed
	// subsystem must take its series with it.
	subsystems := []string{
		"rsmi_build_info", "rsmi_uptime_", "rsmi_points", "rsmi_shards", "rsmi_block_accesses_",
		"rsmi_requests_", "rsmi_admission_", "rsmi_stream_", "rsmi_op_", "rsmi_rebuild", "rsmi_replication_",
		"rsmi_oplog_", "rsmi_plan_", "rsmi_slow_queries_", "rsmi_sub_",
	}
	for family := range types {
		if !slices.ContainsFunc(subsystems, func(p string) bool { return strings.HasPrefix(family, p) }) {
			t.Errorf("series family %s belongs to no serving subsystem", family)
		}
	}

	// The op × transport matrix is complete: every combination emits a
	// counter even before traffic.
	if got := len(byName["rsmi_op_requests_total"]); got != int(wire.NumRoutes)*int(numTransports) {
		t.Errorf("rsmi_op_requests_total has %d series, want %d", got, int(wire.NumRoutes)*int(numTransports))
	}
	// And the traffic we drove is visible on the right cells.
	find := func(name, op, transport string) float64 {
		for _, sm := range byName[name] {
			if sm.labels["op"] == op && sm.labels["transport"] == transport {
				return sm.value
			}
		}
		t.Fatalf("%s{op=%q,transport=%q} absent", name, op, transport)
		return 0
	}
	if got := find("rsmi_op_requests_total", "window", "http"); got != 4 {
		t.Errorf("window http requests = %v, want 4", got)
	}
	if got := find("rsmi_op_requests_total", "point", "http"); got != 1 {
		t.Errorf("point http requests = %v, want 1", got)
	}
	if got := find("rsmi_op_requests_total", "insert", "http"); got != 1 {
		t.Errorf("insert http requests = %v, want 1", got)
	}
	if got := find("rsmi_op_requests_total", "knn", "stream"); got != 3 {
		t.Errorf("knn stream requests = %v, want 3", got)
	}
	for _, name := range []string{"rsmi_stream_frames_total", "rsmi_stream_flushes_total"} {
		if got := byName[name][0].value; got != 3 {
			t.Errorf("%s = %v, want 3", name, got)
		}
	}
	// A takeover that fired as its frame was finishing may be counted after
	// the frame's answer was read, so the later reading is only not smaller.
	takeovers := int64(byName["rsmi_stream_takeovers_total"][0].value)
	if st, err := cl.Stats(); err != nil || st.Stream.Frames != 3 || st.Stream.Flushes != 3 || st.Stream.Takeovers < takeovers {
		t.Errorf("/v1/stats stream = %+v, %v; want 3 frames in 3 flushes and at least /metrics' %d takeovers", st.Stream, err, takeovers)
	}
	if got := byName["rsmi_points"][0].value; got != float64(eng.Len()) {
		t.Errorf("rsmi_points = %v, want %v", got, eng.Len())
	}
	if got := byName["rsmi_shards"][0].value; got != 3 {
		t.Errorf("rsmi_shards = %v, want 3", got)
	}
	if role := byName["rsmi_replication_role"][0].labels["role"]; role != "standalone" {
		t.Errorf("replication role = %q, want standalone", role)
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics concurrently with query
// and write traffic; under -race this doubles as the data-race proof
// for the whole telemetry read path.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Shutdown(context.Background())
	cl := NewClient(hs.URL)
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			windows := workload.Windows(pts, 8, 0.01, 1, int64(100+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					cl.PointQuery(context.Background(), pts[(i*7+w)%len(pts)])
				case 1:
					cl.WindowQuery(context.Background(), windows[i%len(windows)])
				case 2:
					cl.Insert(context.Background(), geom.Pt(float64(w)+float64(i)/1e6, 0.5))
				}
			}
		}(w)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		body := scrapeMetrics(t, hs.URL)
		samples, types := parsePromText(t, body)
		checkHistograms(t, samples, types)
	}
	close(stop)
	wg.Wait()
}

// TestUntracedPathZeroAlloc pins the tentpole's overhead contract: with
// no Observer and no explain flag, the per-request tracing decision and
// every trace hook on the hot path allocate nothing.
func TestUntracedPathZeroAlloc(t *testing.T) {
	eng, _ := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())

	req := httptest.NewRequest(http.MethodPost, "/v1/point", nil)
	if n := testing.AllocsPerRun(200, func() {
		tr, explain := s.startHTTPTrace(req, OpPoint)
		if tr != nil || explain {
			t.Fatal("untraced request produced a trace")
		}
	}); n != 0 {
		t.Errorf("startHTTPTrace (untraced) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if queryExplain(req) {
			t.Fatal("explain without query param")
		}
	}); n != 0 {
		t.Errorf("queryExplain allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if traceJSON(nil) != nil {
			t.Fatal("traceJSON(nil) != nil")
		}
	}); n != 0 {
		t.Errorf("traceJSON(nil) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.observeOp(wire.Row(OpPoint), transportHTTP, time.Microsecond)
	}); n != 0 {
		t.Errorf("observeOp allocates %v per run, want 0", n)
	}
}
