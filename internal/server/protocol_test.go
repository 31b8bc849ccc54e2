package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
	"rsmi/internal/workload"
)

// TestProtocolEquivalence drives one server with a JSON client and a
// binary client and requires identical answers for identical queries —
// the binary protocol must change the encoding, never the semantics.
func TestProtocolEquivalence(t *testing.T) {
	eng, pts := testEngine(t)
	_, jsonCl := startTestServer(t, Config{Engine: eng})
	binCl := NewClient(jsonCl.base, WithProto(ProtoBinary))

	// Point queries: hits and misses.
	for _, p := range []geom.Point{pts[0], pts[99], geom.Pt(-3, -3)} {
		jf, jerr := jsonCl.PointQuery(context.Background(), p)
		bf, berr := binCl.PointQuery(context.Background(), p)
		if jerr != nil || berr != nil || jf != bf {
			t.Fatalf("PointQuery(%v): json (%v,%v) vs binary (%v,%v)", p, jf, jerr, bf, berr)
		}
	}

	// Windows: exact same point lists, order included.
	for _, q := range workload.Windows(pts, 10, 0.01, 1, 63) {
		jp, jerr := jsonCl.WindowQuery(context.Background(), q)
		bp, berr := binCl.WindowQuery(context.Background(), q)
		if jerr != nil || berr != nil {
			t.Fatalf("WindowQuery: %v / %v", jerr, berr)
		}
		if len(jp) != len(bp) {
			t.Fatalf("WindowQuery: json %d points, binary %d", len(jp), len(bp))
		}
		for i := range jp {
			if jp[i] != bp[i] {
				t.Fatalf("WindowQuery point %d: %v vs %v", i, jp[i], bp[i])
			}
		}
	}

	// kNN, including the k<=0 edge both protocols must answer empty.
	for _, k := range []int{-1, 0, 1, 7} {
		jp, jerr := jsonCl.KNN(context.Background(), pts[5], k)
		bp, berr := binCl.KNN(context.Background(), pts[5], k)
		if jerr != nil || berr != nil || len(jp) != len(bp) {
			t.Fatalf("KNN k=%d: json %d (%v), binary %d (%v)", k, len(jp), jerr, len(bp), berr)
		}
		for i := range jp {
			if jp[i] != bp[i] {
				t.Fatalf("KNN k=%d point %d differs", k, i)
			}
		}
	}

	// Writes over binary are visible to JSON and vice versa.
	pb := geom.Pt(0.31337, 0.70001)
	if err := binCl.Insert(context.Background(), pb); err != nil {
		t.Fatalf("binary Insert: %v", err)
	}
	if found, _ := jsonCl.PointQuery(context.Background(), pb); !found {
		t.Fatal("binary insert not visible over JSON")
	}
	if deleted, _ := jsonCl.Delete(context.Background(), pb); !deleted {
		t.Fatal("JSON delete of binary insert failed")
	}
	if found, _ := binCl.PointQuery(context.Background(), pb); found {
		t.Fatal("JSON delete not visible over binary")
	}

	// Heterogeneous batches give identical result lists.
	win := geom.RectAround(pts[3], 0.1, 0.1)
	ops := []BatchOp{
		{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
		{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
		{Op: OpKNN, X: pts[1].X, Y: pts[1].Y, K: 3},
		{Op: OpDelete, X: -9, Y: -9},
	}
	jr, jerr := jsonCl.Batch(context.Background(), ops)
	br, berr := binCl.Batch(context.Background(), ops)
	if jerr != nil || berr != nil || len(jr) != len(br) {
		t.Fatalf("Batch: json %d (%v), binary %d (%v)", len(jr), jerr, len(br), berr)
	}
	for i := range jr {
		if jr[i].Found != br[i].Found || jr[i].OK != br[i].OK ||
			jr[i].Deleted != br[i].Deleted || jr[i].Count != br[i].Count ||
			len(jr[i].Points) != len(br[i].Points) {
			t.Fatalf("batch result %d: json %+v vs binary %+v", i, jr[i], br[i])
		}
		for j := range jr[i].Points {
			if jr[i].Points[j] != br[i].Points[j] {
				t.Fatalf("batch result %d point %d differs", i, j)
			}
		}
	}

	// Binary requests that are semantically invalid still 400 (as JSON).
	if _, err := binCl.WindowQuery(context.Background(), geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}); err == nil {
		t.Fatal("inverted window accepted over binary")
	} else if se, ok := err.(*wire.StatusError); !ok || se.Code != 400 {
		t.Fatalf("inverted window over binary: %v", err)
	}
}

// TestBatchAnswerShapeChecked drives Client.Batch against a server that
// answers the wrong number of results, or results of the wrong kind, in
// both encodings: the checks are the same checks whichever codec read
// the answer.
func TestBatchAnswerShapeChecked(t *testing.T) {
	pt := []geom.Point{geom.Pt(0.5, 0.5)}
	ops := []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.5}, {Op: OpWindow, MaxX: 1, MaxY: 1}}
	for _, c := range []struct {
		name    string
		answers []wire.Result
		kind    bool // the error is the result-kind error
		ok      bool
	}{
		{name: "as asked", answers: []wire.Result{{Op: OpPoint, Flag: true}, {Op: OpWindow, Pts: pt}}, ok: true},
		{name: "too few", answers: []wire.Result{{Op: OpPoint, Flag: true}}},
		{name: "too many", answers: []wire.Result{{Op: OpPoint, Flag: true}, {Op: OpWindow, Pts: pt}, {Op: OpPoint}}},
		{name: "none", answers: nil},
		{name: "points for a bool", answers: []wire.Result{{Op: OpWindow, Pts: pt}, {Op: OpWindow, Pts: pt}}, kind: true},
		{name: "bool for points", answers: []wire.Result{{Op: OpPoint, Flag: true}, {Op: OpInsert, Flag: true}}, kind: true},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if wantsBinaryResponse(r) {
				w.Header().Set("Content-Type", wire.ContentTypeBinary)
				w.Write(wire.AppendAnswers(nil, c.answers, false, nil))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(wire.AppendAnswersJSON(nil, wire.Lookup(wire.BatchRow), c.answers, nil))
		}))
		for _, proto := range []Proto{ProtoJSON, ProtoBinary} {
			cl := NewClient(hs.URL, WithProto(proto))
			res, err := cl.Batch(context.Background(), ops)
			cl.Close()
			switch {
			case c.ok && (err != nil || len(res) != len(ops) || !res[0].Found || res[1].Count != 1):
				t.Errorf("%s over %s: %+v, %v", c.name, proto, res, err)
			case !c.ok && (err == nil || res != nil):
				t.Errorf("%s over %s: accepted as %+v", c.name, proto, res)
			case !c.ok && !errors.Is(err, wire.ErrMismatch):
				t.Errorf("%s over %s: %v, want wire.ErrMismatch", c.name, proto, err)
			case c.kind && !strings.Contains(err.Error(), "result kind does not match op"):
				t.Errorf("%s over %s: %v, want the result-kind error", c.name, proto, err)
			}
		}
		hs.Close()
	}
}

// TestJSONRequestTrailingBytes sends requests with bytes after the
// document, which json.Decoder stopped short of: each is refused, and the
// insert among them applies nothing. Keys json.Unmarshal folds still
// answer as they did, through its way.
func TestJSONRequestTrailingBytes(t *testing.T) {
	eng, _ := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	post := func(path, body string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	n := eng.Len()
	for _, c := range []struct{ path, body string }{
		{"/v1/insert", `{"x":0.25,"y":0.25} {"x":"oops"}`},
		{"/v1/point", `{"x":0.5,"y":0.5}garbage`},
		{"/v1/batch", `{"ops":[{"op":"insert","x":0.75,"y":0.75}]}]]]`},
	} {
		if code, body := post(c.path, c.body); code != http.StatusBadRequest || !strings.Contains(body, "bad request body") {
			t.Errorf("%s %s: %d %s, want 400 bad request body", c.path, c.body, code, body)
		}
	}
	if eng.Len() != n {
		t.Fatalf("refused requests changed the engine: %d points, was %d", eng.Len(), n)
	}
	for _, c := range []struct{ path, body, want string }{
		{"/v1/insert", `{"X":0.125,"Y":0.375}`, "{\"ok\":true}\n"},
		{"/v1/batch", `{"OPS":[{"OP":"point","X":0.125,"Y":0.375}]}`, "{\"results\":[{\"found\":true}]}\n"},
	} {
		if code, body := post(c.path, c.body); code != http.StatusOK || body != c.want {
			t.Errorf("%s %s: %d %q, want 200 %q", c.path, c.body, code, body, c.want)
		}
	}
}

// BenchmarkJSONBatchRoundTrip is the in-tree number for the third
// transport: /v1/batch of 32 windows through Client.Batch over HTTP
// loopback, client and server in this process — request encode, server
// decode, engine, streamed encode, the client's one-pass decode.
func BenchmarkJSONBatchRoundTrip(b *testing.B) {
	eng, pts := testEngine(b)
	s := New(Config{Engine: eng})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Shutdown(context.Background())
	}()
	cl := NewClient(hs.URL)
	defer cl.Close()
	ops := make([]BatchOp, 32)
	for i := range ops {
		q := geom.RectAround(pts[i*17%len(pts)], 0.1, 0.1)
		ops[i] = BatchOp{Op: OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
	}
	ctx := context.Background()
	points := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cl.Batch(ctx, ops)
		if err != nil {
			b.Fatal(err)
		}
		points = 0
		for _, r := range res {
			points += r.Count
		}
	}
	b.ReportMetric(float64(points), "points/op")
}
