package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rsmi/internal/geom"
)

// jsonResult is one result inside any JSON answer as the client decoded
// it before decodeJSONResults: BatchResult with its points as engine
// points. It lives on here only as the differential oracle.
type jsonResult struct {
	Found   bool         `json:"found"`
	Deleted bool         `json:"deleted"`
	OK      bool         `json:"ok"`
	Points  []geom.Point `json:"points"`
}

func (r jsonResult) bin(op string) binResult {
	if pointsResult(op) {
		return binResult{tag: binResPoints, pts: r.Points}
	}
	return binResult{tag: binResBool, flag: r.Found || r.OK || r.Deleted}
}

// decodeJSONResultsOracle is roundTripJSON's decode as it was: one
// reflective encoding/json pass into a union of the five documents.
func decodeJSONResultsOracle(body []byte, single bool, ops []BatchOp) ([]binResult, *TraceJSON, error) {
	var doc struct {
		jsonResult
		Results []jsonResult `json:"results"`
		Trace   *TraceJSON   `json:"trace"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return nil, nil, err
	}
	if single {
		return []binResult{doc.bin(ops[0].Op)}, doc.Trace, nil
	}
	if len(doc.Results) != len(ops) {
		return nil, nil, fmt.Errorf("client: batch returned %d results for %d ops", len(doc.Results), len(ops))
	}
	rs := make([]binResult, len(ops))
	for i, r := range doc.Results {
		rs[i] = r.bin(ops[i].Op)
	}
	return rs, doc.Trace, nil
}

// sameResults compares two decoded answers bit for bit, nil-ness of the
// point slices included.
func sameResults(got, want []binResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.tag != w.tag || g.flag != w.flag || len(g.pts) != len(w.pts) || (g.pts == nil) != (w.pts == nil) {
			return fmt.Errorf("result %d: {tag %d flag %v %d points nil=%v}, want {tag %d flag %v %d points nil=%v}",
				i, g.tag, g.flag, len(g.pts), g.pts == nil, w.tag, w.flag, len(w.pts), w.pts == nil)
		}
		for j := range g.pts {
			if math.Float64bits(g.pts[j].X) != math.Float64bits(w.pts[j].X) ||
				math.Float64bits(g.pts[j].Y) != math.Float64bits(w.pts[j].Y) {
				return fmt.Errorf("result %d point %d: %v, want %v", i, j, g.pts[j], w.pts[j])
			}
		}
	}
	return nil
}

// fuzzOps spells n ops whose kinds are the low bits of kinds: a set bit
// is a window (a points answer), a clear one a point probe (a bool).
func fuzzOps(n int, kinds uint64) []BatchOp {
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i].Op = OpPoint
		if kinds>>(i%64)&1 != 0 {
			ops[i].Op = OpWindow
		}
	}
	return ops
}

// encodedAnswers renders answers (one when single) as the server does.
func encodedAnswers(answers []batchAnswer, single bool, tj *TraceJSON) []byte {
	switch {
	case !single:
		return appendBatchAnswersJSON(nil, answers, tj)
	case pointsResult(answers[0].op):
		return appendPointsJSON(nil, answers[0].pts, tj)
	}
	return appendFlagJSON(nil, answers[0].op, answers[0].flag, tj)
}

func opsOf(answers []batchAnswer) []BatchOp {
	ops := make([]BatchOp, len(answers))
	for i, a := range answers {
		ops[i].Op = a.op
	}
	return ops
}

// FuzzDecodeJSONResults holds the one-pass decoder to the decode it
// replaced: whatever bytes a server sends, it never panics, and an answer
// it accepts (and dataPlane.do's checkResults lets through) is the answer
// encoding/json gave for the same bytes — results, points and trace. It
// may refuse what encoding/json took; it may not differ.
func FuzzDecodeJSONResults(f *testing.F) {
	pts := []geom.Point{geom.Pt(0.5, 0.25), geom.Pt(1e-9, 1e21), geom.Pt(-0.00025, 123456)}
	for _, tj := range []*TraceJSON{nil, testTrace} {
		for _, a := range []batchAnswer{
			{op: OpPoint, flag: true}, {op: OpInsert, flag: true}, {op: OpDelete, flag: true},
			{op: OpWindow, pts: pts}, {op: OpKNN},
		} {
			kinds := uint64(0)
			if pointsResult(a.op) {
				kinds = 1
			}
			f.Add(encodedAnswers([]batchAnswer{a}, true, tj), true, uint8(1), kinds)
		}
		f.Add(encodedAnswers([]batchAnswer{
			{op: OpPoint, flag: true}, {op: OpWindow, pts: pts}, {op: OpDelete}, {op: OpKNN}, {op: OpKNN, pts: pts[:1]},
		}, false, tj), false, uint8(5), uint64(0b11010))
	}
	for _, c := range jsonDecodeCorpus {
		kinds := uint64(0)
		if len(c.ops) > 0 && pointsResult(c.ops[0].Op) {
			kinds = 1
		}
		f.Add([]byte(c.body), c.single, uint8(len(c.ops)), kinds)
	}
	f.Fuzz(func(t *testing.T, body []byte, single bool, n uint8, kinds uint64) {
		if single {
			n = 1
		}
		ops := fuzzOps(int(n%65), kinds)
		got, gotTrace, err := decodeJSONResults(body, single, ops)
		if err != nil {
			if got != nil || gotTrace != nil {
				t.Fatalf("a partial answer beside the error %v", err)
			}
			return
		}
		if checkResults(got, ops) != nil {
			return
		}
		want, wantTrace, err := decodeJSONResultsOracle(body, single, ops)
		if err != nil {
			t.Fatalf("accepted a body encoding/json rejects: %v", err)
		}
		if err := sameResults(got, want); err != nil {
			t.Fatalf("differs from encoding/json: %v", err)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("trace %+v, encoding/json decoded %+v", gotTrace, wantTrace)
		}
	})
}

// jsonDecodeCorpus is the decoder's seed corpus — the unusual documents
// and the hostile ones — with the verdict each must get. The fuzz target
// starts from it; TestJSONDecodeCorpusVerdicts keeps the names honest.
var jsonDecodeCorpus = func() []jsonCorpusDoc {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	window, point := []BatchOp{{Op: OpWindow}}, []BatchOp{{Op: OpPoint}}
	return []jsonCorpusDoc{
		{"empty object is a false bool", `{}`, true, point, true},
		{"empty object is no points", `{}`, true, window, true},
		{"null points", `{"count":0,"points":null}`, true, window, true},
		{"null results for no ops", `{"results":null}`, false, nil, true},
		{"exponents", `{"count":1,"points":[{"x":1e-9,"y":1e+21}]}`, true, window, true},
		{"whitespace everywhere", " {\n\t\"count\" : 1 ,\r\n \"points\" : [ { \"x\" : 0.5 , \"y\" : -2E3 } ] } \n", true, window, true},
		{"keys in any order", `{"points":[{"y":2,"x":1}],"count":1}`, true, window, true},
		{"unknown keys skipped", `{"v":[1,{"a":"é\n","b":[true,false,null]}],"found":true}`, true, point, true},
		{"unknown key in a point", `{"points":[{"x":1,"z":[{}],"y":2}]}`, true, window, true},
		{"count of another type", `{"count":"many","points":[]}`, true, window, true},
		{"coordinate given twice", `{"points":[{"x":1,"x":2,"y":3}]}`, true, window, true},
		{"count that lies", `{"count":999999999,"points":[{"x":1,"y":2}]}`, true, window, true},
		{"1 000-deep unknown value", `{"v":` + deep(jsonMaxDepth) + `}`, true, point, true},
		{"trace", `{"found":true,"trace":{"id":3,"shards_visited":1,"block_accesses":2,"stages":[{"stage":"execute","us":1.5}]}}`, true, point, true},
		{"null trace", `{"found":true,"trace":null}`, true, point, true},

		{"trailing garbage", `{"found":true}garbage`, true, point, false},
		{"second document", `{"found":true} {}`, true, point, false},
		{"truncated", `{"count":2,"points":[{"x":1,"y":2},{"x":`, true, window, false},
		{"empty body", ``, true, point, false},
		{"not an object", `[true]`, true, point, false},
		{"null document", `null`, true, point, false},
		{"wrong-case key", `{"Found":true}`, true, point, false},
		{"wrong-case points", `{"POINTS":[]}`, true, window, false},
		{"wrong-case coordinate", `{"points":[{"X":1,"y":2}]}`, true, window, false},
		{"escaped key", `{"fo\u0075nd":true}`, true, point, false},
		{"non-ASCII key", "{\"oK\":true}", true, point, false},
		{"duplicate bool", `{"found":true,"found":false}`, true, point, false},
		{"duplicate points", `{"points":[{"x":1,"y":2}],"points":[{"x":3}]}`, true, window, false},
		{"duplicate results", `{"results":[{}],"results":[{}]}`, false, point, false},
		{"results in a per-op answer", `{"found":true,"results":[]}`, true, point, false},
		{"results inside a result", `{"results":[{"results":[]}]}`, false, point, false},
		{"too few results", `{"results":[]}`, false, point, false},
		{"too many results", `{"results":[{},{}]}`, false, point, false},
		{"no results", `{}`, false, point, false},
		{"1 001-deep array", `{"v":` + deep(jsonMaxDepth+1) + `}`, true, point, false},
		{"null bool", `{"found":null}`, true, point, false},
		{"null point", `{"points":[null]}`, true, window, false},
		{"null coordinate", `{"points":[{"x":null,"y":1}]}`, true, window, false},
		{"string coordinate", `{"points":[{"x":"1","y":1}]}`, true, window, false},
		{"number as bool", `{"found":1}`, true, point, false},
		{"Inf", `{"points":[{"x":Inf,"y":1}]}`, true, window, false},
		{"hex float", `{"points":[{"x":0x1p-2,"y":1}]}`, true, window, false},
		{"underscore", `{"points":[{"x":1_0,"y":1}]}`, true, window, false},
		{"leading zero", `{"points":[{"x":01,"y":1}]}`, true, window, false},
		{"bare fraction", `{"points":[{"x":.5,"y":1}]}`, true, window, false},
		{"no fraction digits", `{"points":[{"x":1.,"y":1}]}`, true, window, false},
		{"plus sign", `{"points":[{"x":+1,"y":1}]}`, true, window, false},
		{"lone minus", `{"points":[{"x":-,"y":1}]}`, true, window, false},
		{"no exponent digits", `{"points":[{"x":1e,"y":1}]}`, true, window, false},
		{"trailing comma in array", `{"points":[{"x":1,"y":1},]}`, true, window, false},
		{"trailing comma in object", `{"found":true,}`, true, point, false},
		{"missing comma", `{"points":[{"x":1,"y":1}{"x":1,"y":1}]}`, true, window, false},
		{"control byte in a skipped string", "{\"v\":\"a\nb\"}", true, point, false},
		{"bad escape in a skipped string", `{"v":"\x"}`, true, point, false},
		{"short \\u escape", `{"v":"\u12"}`, true, point, false},
		{"invalid trace", `{"found":true,"trace":{"id":"seven"}}`, true, point, false},
	}
}()

type jsonCorpusDoc struct {
	name   string
	body   string
	single bool
	ops    []BatchOp
	ok     bool
}

// TestJSONDecodeCorpusVerdicts pins which way each corpus document
// goes, and that the accepted ones read as encoding/json read them.
func TestJSONDecodeCorpusVerdicts(t *testing.T) {
	window, point := []BatchOp{{Op: OpWindow}}, []BatchOp{{Op: OpPoint}}
	for _, c := range jsonDecodeCorpus {
		got, tj, err := decodeJSONResults([]byte(c.body), c.single, c.ops)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			if got != nil || tj != nil {
				t.Errorf("%s: a partial answer beside the error", c.name)
			}
			continue
		}
		want, wantTrace, err := decodeJSONResultsOracle([]byte(c.body), c.single, c.ops)
		if err != nil {
			t.Errorf("%s: accepted, but encoding/json says %v", c.name, err)
		} else if err := sameResults(got, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(tj, wantTrace) {
			t.Errorf("%s: trace %+v, want %+v", c.name, tj, wantTrace)
		}
	}

	// Trailing bytes were a successful answer at the parent commit:
	// Decoder.Decode stops at the end of the first value.
	if _, _, err := decodeJSONResultsOracle([]byte(`{"found":true}garbage`), true, point); err != nil {
		t.Fatalf("the oracle no longer shows the blind spot: %v", err)
	}
	// A coordinate beyond float64 is the error class it always was.
	_, _, err := decodeJSONResults([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	_, _, oracleErr := decodeJSONResultsOracle([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	var typeErr, oracleTypeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) || !errors.As(oracleErr, &oracleTypeErr) || typeErr.Value != oracleTypeErr.Value {
		t.Fatalf("1e999: %v, encoding/json says %v", err, oracleErr)
	}
	// The count is a hint, not a promise: what it reserves is bounded by
	// the bytes that could still hold points.
	lying := []byte(`{"count":999999999,"points":[{"x":1,"y":2}]}`)
	rs, _, err := decodeJSONResults(lying, true, window)
	if err != nil || len(rs[0].pts) != 1 || cap(rs[0].pts) > len(lying)/3 {
		t.Fatalf("lying count: %d points in capacity %d (%v)", len(rs[0].pts), cap(rs[0].pts), err)
	}
}

// randomAnswer draws one executed answer of any kind, its coordinates
// across the magnitudes the float formatter special-cases.
func randomAnswer(rng *rand.Rand) batchAnswer {
	ops := [...]string{OpPoint, OpInsert, OpDelete, OpWindow, OpKNN, OpSQL}
	a := batchAnswer{op: ops[rng.Intn(len(ops))]}
	if !pointsResult(a.op) {
		a.flag = rng.Intn(2) == 0
		return a
	}
	coord := func() float64 {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(8) == 0 {
			v = math.Trunc(v)
		}
		return v
	}
	a.pts = make([]geom.Point, rng.Intn(6))
	for i := range a.pts {
		a.pts[i] = geom.Pt(coord(), coord())
	}
	return a
}

// TestJSONDecodeReadsEveryEncoding is the encoder→decoder property:
// whatever appendBatchAnswersJSON, appendPointsJSON and appendFlagJSON
// emit — any answers, trace or no trace — decodes to the answers it was
// built from.
func TestJSONDecodeReadsEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(answers []batchAnswer, single bool, tj *TraceJSON) {
		t.Helper()
		body := encodedAnswers(answers, single, tj)
		ops := opsOf(answers)
		got, gotTrace, err := decodeJSONResults(body, single, ops)
		if err == nil {
			err = checkResults(got, ops)
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, body)
		}
		if !reflect.DeepEqual(gotTrace, tj) {
			t.Fatalf("trace %+v, want %+v", gotTrace, tj)
		}
		for i, a := range answers {
			if got[i].flag != a.flag || len(got[i].pts) != len(a.pts) {
				t.Fatalf("answer %d: %+v, want %+v\n%s", i, got[i], a, body)
			}
			for j := range a.pts {
				if got[i].pts[j] != a.pts[j] {
					t.Fatalf("answer %d point %d: %v, want %v", i, j, got[i].pts[j], a.pts[j])
				}
			}
		}
	}
	for round := 0; round < 300; round++ {
		tj := testTrace
		if round%2 == 0 {
			tj = nil
		}
		check([]batchAnswer{randomAnswer(rng)}, true, tj)
		answers := make([]batchAnswer, rng.Intn(9))
		for i := range answers {
			answers[i] = randomAnswer(rng)
			if answers[i].op == OpSQL { // a statement is its own batch
				answers[i].op = OpKNN
			}
		}
		check(answers, false, tj)
	}
}

// windowBatchAnswer is the 32-window answer the decode numbers are
// quoted on: 32 × 190 points, ~290 KB of JSON.
func windowBatchAnswer() (body []byte, ops []BatchOp) {
	rng := rand.New(rand.NewSource(3))
	answers := make([]batchAnswer, 32)
	for i := range answers {
		pts := make([]geom.Point, 190)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i] = batchAnswer{op: OpWindow, pts: pts}
	}
	return appendBatchAnswersJSON(nil, answers, nil), opsOf(answers)
}

// TestJSONDecodeAllocs pins the decoder at one allocation per non-empty
// result — its point slice, sized by the count — plus a constant: no
// allocation per point, none per key, none per number.
func TestJSONDecodeAllocs(t *testing.T) {
	body, ops := windowBatchAnswer()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := decodeJSONResults(body, false, ops); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(ops) + 1); allocs > want {
		t.Fatalf("decoding a 32-window answer allocates %.1f times, want <= %.0f (one per result and the result list)", allocs, want)
	}
	// The leaves, by name: scanning a point the fast way, a number, and
	// an arbitrary value allocates nothing at all.
	point := []byte(`{"x":0.8401877171547095,"y":-1.25e-9}`)
	value := []byte(`{"a":[1,2.5e3,{"b":"cé\n"}],"d":null,"e":[[],{}]}`)
	leaves := testing.AllocsPerRun(100, func() {
		if _, end := scanJSONPoint(point, 0); end != len(point) {
			t.Fatalf("scanJSONPoint stopped at %d of %d", end, len(point))
		}
		if v, end := scanJSONFloat(point, 5); end != 23 || v != 0.8401877171547095 {
			t.Fatalf("scanJSONFloat read %v, stopping at %d", v, end)
		}
		if end := skipJSONValue(value, 0, 0); end != len(value) {
			t.Fatalf("skipJSONValue stopped at %d of %d", end, len(value))
		}
	})
	if leaves > 0 {
		t.Fatalf("the scanner's leaves allocate %.1f times, want 0", leaves)
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
		answers []batchAnswer
		kind    bool // the error is errBinResultKind
		ok      bool
	}{
		{name: "as asked", answers: []batchAnswer{{op: OpPoint, flag: true}, {op: OpWindow, pts: pt}}, ok: true},
		{name: "too few", answers: []batchAnswer{{op: OpPoint, flag: true}}},
		{name: "too many", answers: []batchAnswer{{op: OpPoint, flag: true}, {op: OpWindow, pts: pt}, {op: OpPoint}}},
		{name: "none", answers: nil},
		{name: "points for a bool", answers: []batchAnswer{{op: OpWindow, pts: pt}, {op: OpWindow, pts: pt}}, kind: true},
		{name: "bool for points", answers: []batchAnswer{{op: OpPoint, flag: true}, {op: OpInsert, flag: true}}, kind: true},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if wantsBinaryResponse(r) {
				w.Header().Set("Content-Type", ContentTypeBinary)
				w.Write(appendBatchAnswers(appendBinHeader(nil), c.answers))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(appendBatchAnswersJSON(nil, c.answers, nil))
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
			case c.kind && !errors.Is(err, errBinResultKind):
				t.Errorf("%s over %s: %v, want errBinResultKind", c.name, proto, err)
			}
		}
		hs.Close()
	}
}

// BenchmarkDecodeJSONResults is the client codec's own number: one
// 32-window /v1/batch answer (~290 KB) through decodeJSONResults, and
// through the reflective decode it replaced.
func BenchmarkDecodeJSONResults(b *testing.B) {
	body, ops := windowBatchAnswer()
	for _, c := range []struct {
		name   string
		decode func([]byte, bool, []BatchOp) ([]binResult, *TraceJSON, error)
	}{{"one-pass", decodeJSONResults}, {"encoding-json", decodeJSONResultsOracle}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.decode(body, false, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
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
