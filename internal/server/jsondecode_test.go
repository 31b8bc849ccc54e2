package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
)

// jsonResult is one result inside any JSON answer as the client decoded
// it before wire.DecodeJSONResults: BatchResult with its points as engine
// points. It lives on here only as the differential oracle.
type jsonResult struct {
	Found   bool         `json:"found"`
	Deleted bool         `json:"deleted"`
	OK      bool         `json:"ok"`
	Points  []geom.Point `json:"points"`
}

func (r jsonResult) bin(op string) wire.Result {
	if pointsResult(op) {
		return wire.Result{Op: op, Pts: r.Points}
	}
	return wire.Result{Op: op, Flag: r.Found || r.OK || r.Deleted}
}

// jsonMaxDepth is the decoder's nesting cap.
const jsonMaxDepth = 1000

// decodeJSONResultsOracle is the JSON client's decode as it was: one
// reflective encoding/json pass into a union of the five documents.
func decodeJSONResultsOracle(body []byte, single bool, ops []BatchOp) ([]wire.Result, *TraceJSON, error) {
	var doc struct {
		jsonResult
		Results []jsonResult `json:"results"`
		Trace   *TraceJSON   `json:"trace"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return nil, nil, err
	}
	if single {
		return []wire.Result{doc.bin(ops[0].Op)}, doc.Trace, nil
	}
	if len(doc.Results) != len(ops) {
		return nil, nil, fmt.Errorf("client: batch returned %d results for %d ops", len(doc.Results), len(ops))
	}
	rs := make([]wire.Result, len(ops))
	for i, r := range doc.Results {
		rs[i] = r.bin(ops[i].Op)
	}
	return rs, doc.Trace, nil
}

// sameResults compares two decoded answers bit for bit, nil-ness of the
// point slices included.
func sameResults(got, want []wire.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.Flag != w.Flag || len(g.Pts) != len(w.Pts) || (g.Pts == nil) != (w.Pts == nil) {
			return fmt.Errorf("result %d: {op %q flag %v %d points nil=%v}, want {op %q flag %v %d points nil=%v}",
				i, g.Op, g.Flag, len(g.Pts), g.Pts == nil, w.Op, w.Flag, len(w.Pts), w.Pts == nil)
		}
		for j := range g.Pts {
			if math.Float64bits(g.Pts[j].X) != math.Float64bits(w.Pts[j].X) ||
				math.Float64bits(g.Pts[j].Y) != math.Float64bits(w.Pts[j].Y) {
				return fmt.Errorf("result %d point %d: %v, want %v", i, j, g.Pts[j], w.Pts[j])
			}
		}
	}
	return nil
}

// opsOf lists the ops answers answer.
func opsOf(answers []wire.Result) []BatchOp {
	ops := make([]BatchOp, len(answers))
	for i, a := range answers {
		ops[i].Op = a.Op
	}
	return ops
}

// pointsResult reports whether op answers with points rather than a flag.
func pointsResult(op string) bool {
	row := wire.Row(op)
	return row != 0 && wire.Lookup(row).Flag == ""
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
func encodedAnswers(answers []wire.Result, single bool, tj *TraceJSON) []byte {
	rt := wire.Lookup(wire.BatchRow)
	if single {
		rt = wire.Lookup(wire.Row(answers[0].Op))
	}
	return wire.AppendAnswersJSON(nil, rt, answers, tj)
}

// FuzzDecodeJSONResults holds the one-pass decoder to the decode it
// replaced: whatever bytes a server sends, it never panics, and an answer
// it accepts — one result per op, each of its op's kind — is the answer
// encoding/json gave for the same bytes — results, points and trace. It
// may refuse what encoding/json took; it may not differ.
func FuzzDecodeJSONResults(f *testing.F) {
	pts := []geom.Point{geom.Pt(0.5, 0.25), geom.Pt(1e-9, 1e21), geom.Pt(-0.00025, 123456)}
	for _, tj := range []*TraceJSON{nil, testTrace} {
		for _, a := range []wire.Result{
			{Op: OpPoint, Flag: true}, {Op: OpInsert, Flag: true}, {Op: OpDelete, Flag: true},
			{Op: OpWindow, Pts: pts}, {Op: OpKNN},
		} {
			kinds := uint64(0)
			if pointsResult(a.Op) {
				kinds = 1
			}
			f.Add(encodedAnswers([]wire.Result{a}, true, tj), true, uint8(1), kinds)
		}
		f.Add(encodedAnswers([]wire.Result{
			{Op: OpPoint, Flag: true}, {Op: OpWindow, Pts: pts}, {Op: OpDelete}, {Op: OpKNN}, {Op: OpKNN, Pts: pts[:1]},
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
		got, gotTrace, err := wire.DecodeJSONResults(body, single, ops)
		if err != nil {
			if got != nil || gotTrace != nil {
				t.Fatalf("a partial answer beside the error %v", err)
			}
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
		got, tj, err := wire.DecodeJSONResults([]byte(c.body), c.single, c.ops)
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
	_, _, err := wire.DecodeJSONResults([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	_, _, oracleErr := decodeJSONResultsOracle([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	var typeErr, oracleTypeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) || !errors.As(oracleErr, &oracleTypeErr) || typeErr.Value != oracleTypeErr.Value {
		t.Fatalf("1e999: %v, encoding/json says %v", err, oracleErr)
	}
	// The count is a hint, not a promise: what it reserves is bounded by
	// the bytes that could still hold points.
	lying := []byte(`{"count":999999999,"points":[{"x":1,"y":2}]}`)
	rs, _, err := wire.DecodeJSONResults(lying, true, window)
	if err != nil || len(rs[0].Pts) != 1 || cap(rs[0].Pts) > len(lying)/3 {
		t.Fatalf("lying count: %d points in capacity %d (%v)", len(rs[0].Pts), cap(rs[0].Pts), err)
	}
}

// randomAnswer draws one executed answer of any kind, its coordinates
// across the magnitudes the float formatter special-cases.
func randomAnswer(rng *rand.Rand) wire.Result {
	ops := [...]string{OpPoint, OpInsert, OpDelete, OpWindow, OpKNN, wire.OpSQL}
	a := wire.Result{Op: ops[rng.Intn(len(ops))]}
	if !pointsResult(a.Op) {
		a.Flag = rng.Intn(2) == 0
		return a
	}
	coord := func() float64 {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(8) == 0 {
			v = math.Trunc(v)
		}
		return v
	}
	a.Pts = make([]geom.Point, rng.Intn(6))
	for i := range a.Pts {
		a.Pts[i] = geom.Pt(coord(), coord())
	}
	return a
}

// TestJSONDecodeReadsEveryEncoding is the encoder→decoder property:
// whatever wire.AppendAnswersJSON
// emits — any answers, trace or no trace — decodes to the answers it was
// built from.
func TestJSONDecodeReadsEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(answers []wire.Result, single bool, tj *TraceJSON) {
		t.Helper()
		body := encodedAnswers(answers, single, tj)
		ops := opsOf(answers)
		got, gotTrace, err := wire.DecodeJSONResults(body, single, ops)
		if err != nil {
			t.Fatalf("%v\n%s", err, body)
		}
		if !reflect.DeepEqual(gotTrace, tj) {
			t.Fatalf("trace %+v, want %+v", gotTrace, tj)
		}
		for i, a := range answers {
			if got[i].Flag != a.Flag || len(got[i].Pts) != len(a.Pts) {
				t.Fatalf("answer %d: %+v, want %+v\n%s", i, got[i], a, body)
			}
			for j := range a.Pts {
				if got[i].Pts[j] != a.Pts[j] {
					t.Fatalf("answer %d point %d: %v, want %v", i, j, got[i].Pts[j], a.Pts[j])
				}
			}
		}
	}
	for round := 0; round < 300; round++ {
		tj := testTrace
		if round%2 == 0 {
			tj = nil
		}
		check([]wire.Result{randomAnswer(rng)}, true, tj)
		answers := make([]wire.Result, rng.Intn(9))
		for i := range answers {
			answers[i] = randomAnswer(rng)
			if answers[i].Op == wire.OpSQL { // a statement is its own batch
				answers[i].Op = OpKNN
			}
		}
		check(answers, false, tj)
	}
}

// windowBatchAnswer is the 32-window answer the decode numbers are
// quoted on: 32 × 190 points, ~290 KB of JSON.
func windowBatchAnswer() (body []byte, ops []BatchOp) {
	rng := rand.New(rand.NewSource(3))
	answers := make([]wire.Result, 32)
	for i := range answers {
		pts := make([]geom.Point, 190)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i] = wire.Result{Op: OpWindow, Pts: pts}
	}
	return wire.AppendAnswersJSON(nil, wire.Lookup(wire.BatchRow), answers, nil), opsOf(answers)
}

// TestJSONDecodeAllocs pins the decoder at one allocation per non-empty
// result — its point slice, sized by the count — plus a constant: no
// allocation per point, none per key, none per number.
func TestJSONDecodeAllocs(t *testing.T) {
	body, ops := windowBatchAnswer()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := wire.DecodeJSONResults(body, false, ops); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(ops) + 1); allocs > want {
		t.Fatalf("decoding a 32-window answer allocates %.1f times, want <= %.0f (one per result and the result list)", allocs, want)
	}
}
