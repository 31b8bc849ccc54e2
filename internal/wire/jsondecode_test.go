package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rsmi/internal/geom"
)

// TestJSONScannerLeavesAllocateNothing pins the decoders' leaves by name:
// scanning a point the fast way, a number, an arbitrary value and a
// plain string allocates nothing at all.
func TestJSONScannerLeavesAllocateNothing(t *testing.T) {
	point := []byte(`{"x":0.8401877171547095,"y":-1.25e-9}`)
	value := []byte(`{"a":[1,2.5e3,{"b":"cé\n"}],"d":null,"e":[[],{}]}`)
	num, str := []byte(`-0.0012345678901234567e-3,`), []byte(`"SELECT é",`)
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
		if v, end := scanJSONFloat(num, 0); end != len(num)-1 || v != -0.0012345678901234567e-3 {
			t.Fatalf("scanJSONFloat read %v, stopping at %d", v, end)
		}
		if end, ascii := scanJSONPlainString(str, 0); end != len(str)-1 || ascii {
			t.Fatalf("scanJSONPlainString stopped at %d (ascii %v)", end, ascii)
		}
	})
	if leaves > 0 {
		t.Fatalf("the scanner's leaves allocate %.1f times, want 0", leaves)
	}
}

// parseFloatEdges are the number texts on the edges of the JSON float
// scanner's exact path; each is checked with and without a minus sign.
var parseFloatEdges = []string{
	"0", "-0", "0.0", "-0.0e5", "1", "7e0",
	"0.1234567890123456789012", "0.12345678901234567890123", // 22 and 23 fraction digits
	"9007199254740992", "9007199254740993", "9007199254740991", "9007199254740992e22", // 2^53, 2^53 + 1
	"1234567890123456789", "12345678901234567890", "12345678901234567891", // 19 and 20 significant digits
	"0.1234567890123456789", "0.12345678901234567891", "1.0000000000000000000000001",
	"1e22", "1e23", "1e-7", "1e-22", "1e-23", "4.35e-22", "100000000000000000000000",
	"0.000001", "0.0000001", "0.000000123456789", "0.00000000000000000000000000001", // leading zeros in the fraction
	"1.7976931348623157e308", "1.7976931348623159e308", "1e309", "1e-400", "5e-324", "2.2250738585072014e-308",
	"123456789012345678901234567890e-10", "0e999999", "1E+2", "1e+00", "1e0000000000000000000001", "1e-99999999999999999999",
}

// TestScanJSONFloatMatchesParseFloat holds scanJSONFloat to
// strconv.ParseFloat bit for bit: on the edges of its fast path, and on
// 5 M texts of appendJSONFloat (random bit patterns, uniform [0, 1),
// normal × 1e6).
func TestScanJSONFloatMatchesParseFloat(t *testing.T) {
	check := func(text []byte) {
		t.Helper()
		want, err := strconv.ParseFloat(string(text), 64)
		got, end := scanJSONFloat(text, 0)
		if end != len(text) || math.Float64bits(got) != math.Float64bits(want) || (err != nil) != math.IsInf(got, 0) {
			t.Fatalf("%s: %v to byte %d, ParseFloat says %v (%v)", text, got, end, want, err)
		}
	}
	for _, s := range parseFloatEdges {
		check([]byte(s))
		if s[0] != '-' {
			check([]byte("-" + s))
		}
	}
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1e", "1e+", "Inf", "-Inf", "NaN", "_1", "-.5", "- 1"} {
		if _, end := scanJSONFloat([]byte(s), 0); end >= 0 {
			t.Fatalf("%q: read as a number to byte %d", s, end)
		}
	}
	for _, c := range []struct{ s, number string }{{"01", "0"}, {"0x1p-2", "0"}, {"1_000", "1"}, {"1.5.5", "1.5"}, {"2e3e4", "2e3"}} {
		if _, end := scanJSONFloat([]byte(c.s), 0); end != len(c.number) {
			t.Fatalf("%q: the number ends at byte %d, want %d", c.s, end, len(c.number))
		}
	}

	n := 5_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(26))
	var buf []byte
	for i := 0; i < n; i++ {
		var v float64
		switch i % 3 {
		case 0:
			if v = math.Float64frombits(rng.Uint64()); math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 1:
			v = rng.Float64()
		case 2:
			v = rng.NormFloat64() * 1e6
		}
		buf = appendJSONFloat(buf[:0], v)
		check(buf)
	}
}

// TestJSONRequestKeysAreTags holds the request codec's keys to the json
// tags of the shapes' documents, in field order.
func TestJSONRequestKeysAreTags(t *testing.T) {
	for shape, v := range map[Shape]interface{}{ReqPoint: PointJSON{}, ReqRect: RectJSON{}, ReqKNN: KNNJSON{}, ReqSQL: sqlRequest{}, reqBatch: BatchOp{}} {
		var tags []string
		for i, typ := 0, reflect.TypeOf(v); i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if keys := jsonRequestKeys[shape]; !reflect.DeepEqual(tags, keys) {
			t.Errorf("%T has the json tags %q; the request codec has %q", v, tags, keys)
		}
	}
}

// decodeJSONResultsReflect is the client's answer decode before
// DecodeJSONResults: one encoding/json pass into a union of the answer
// documents — a per-op answer's fields, a batch's results and the trace.
// It is the differential oracle of the one-pass decoder, and
// BenchmarkDecodeJSONResults quotes it beside it.
func decodeJSONResultsReflect(body []byte, single bool, ops []BatchOp) ([]Result, *TraceJSON, error) {
	type result struct {
		Found   bool         `json:"found"`
		Deleted bool         `json:"deleted"`
		OK      bool         `json:"ok"`
		Points  []geom.Point `json:"points"`
	}
	bin := func(r result, op string) Result {
		if pointsResult(op) {
			return Result{Op: op, Pts: r.Points}
		}
		return Result{Op: op, Flag: r.Found || r.OK || r.Deleted}
	}
	var doc struct {
		result
		Results []result   `json:"results"`
		Trace   *TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return nil, nil, err
	}
	if single {
		return []Result{bin(doc.result, ops[0].Op)}, doc.Trace, nil
	}
	if len(doc.Results) != len(ops) {
		return nil, nil, fmt.Errorf("%d results for %d ops", len(doc.Results), len(ops))
	}
	rs := make([]Result, len(ops))
	for i, r := range doc.Results {
		rs[i] = bin(r, ops[i].Op)
	}
	return rs, doc.Trace, nil
}

// sameResults compares two decoded answers bit for bit, nil-ness of the
// point slices included.
func sameResults(got, want []Result) error {
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

// encodedAnswers renders answers (one when single) as the server does.
func encodedAnswers(answers []Result, single bool, tj *TraceJSON) []byte {
	rt := Lookup(BatchRow)
	if single {
		rt = Lookup(Row(answers[0].Op))
	}
	return AppendAnswersJSON(nil, rt, answers, tj)
}

// FuzzDecodeJSONResults holds the one-pass decoder to the decode it
// replaced: whatever bytes a server sends, it never panics, and an answer
// it accepts — one result per op, each of its op's kind — is the answer
// encoding/json gave for the same bytes — results, points and trace. It
// may refuse what encoding/json took; it may not differ.
func FuzzDecodeJSONResults(f *testing.F) {
	pts := []geom.Point{geom.Pt(0.5, 0.25), geom.Pt(1e-9, 1e21), geom.Pt(-0.00025, 123456)}
	for _, tj := range []*TraceJSON{nil, testTrace} {
		for _, a := range []Result{
			{Op: OpPoint, Flag: true}, {Op: OpInsert, Flag: true}, {Op: OpDelete, Flag: true},
			{Op: OpWindow, Pts: pts}, {Op: OpKNN},
		} {
			kinds := uint64(0)
			if pointsResult(a.Op) {
				kinds = 1
			}
			f.Add(encodedAnswers([]Result{a}, true, tj), true, uint8(1), kinds)
		}
		f.Add(encodedAnswers([]Result{
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
		got, gotTrace, err := DecodeJSONResults(body, single, ops)
		if err != nil {
			if got != nil || gotTrace != nil {
				t.Fatalf("a partial answer beside the error %v", err)
			}
			return
		}
		want, wantTrace, err := decodeJSONResultsReflect(body, single, ops)
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
		got, tj, err := DecodeJSONResults([]byte(c.body), c.single, c.ops)
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
		want, wantTrace, err := decodeJSONResultsReflect([]byte(c.body), c.single, c.ops)
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
	if _, _, err := decodeJSONResultsReflect([]byte(`{"found":true}garbage`), true, point); err != nil {
		t.Fatalf("the oracle no longer shows the blind spot: %v", err)
	}
	// A coordinate beyond float64 is the error class it always was.
	_, _, err := DecodeJSONResults([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	_, _, oracleErr := decodeJSONResultsReflect([]byte(`{"points":[{"x":1e999,"y":1}]}`), true, window)
	var typeErr, oracleTypeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) || !errors.As(oracleErr, &oracleTypeErr) || typeErr.Value != oracleTypeErr.Value {
		t.Fatalf("1e999: %v, encoding/json says %v", err, oracleErr)
	}
	// The count is a hint, not a promise: what it reserves is bounded by
	// the bytes that could still hold points.
	lying := []byte(`{"count":999999999,"points":[{"x":1,"y":2}]}`)
	rs, _, err := DecodeJSONResults(lying, true, window)
	if err != nil || len(rs[0].Pts) != 1 || cap(rs[0].Pts) > len(lying)/3 {
		t.Fatalf("lying count: %d points in capacity %d (%v)", len(rs[0].Pts), cap(rs[0].Pts), err)
	}
}

// randomAnswer draws one executed answer of any kind, its coordinates
// across the magnitudes the float formatter special-cases.
func randomAnswer(rng *rand.Rand) Result {
	ops := [...]string{OpPoint, OpInsert, OpDelete, OpWindow, OpKNN, OpSQL}
	a := Result{Op: ops[rng.Intn(len(ops))]}
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
// whatever AppendAnswersJSON
// emits — any answers, trace or no trace — decodes to the answers it was
// built from.
func TestJSONDecodeReadsEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(answers []Result, single bool, tj *TraceJSON) {
		t.Helper()
		body := encodedAnswers(answers, single, tj)
		ops := opsOf(answers)
		got, gotTrace, err := DecodeJSONResults(body, single, ops)
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
		check([]Result{randomAnswer(rng)}, true, tj)
		answers := make([]Result, rng.Intn(9))
		for i := range answers {
			answers[i] = randomAnswer(rng)
			if answers[i].Op == OpSQL { // a statement is its own batch
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
	answers := make([]Result, 32)
	for i := range answers {
		pts := make([]geom.Point, 190)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i] = Result{Op: OpWindow, Pts: pts}
	}
	return AppendAnswersJSON(nil, Lookup(BatchRow), answers, nil), opsOf(answers)
}

// TestJSONDecodeAllocs pins the decoder at one allocation per non-empty
// result — its point slice, sized by the count — plus a constant: no
// allocation per point, none per key, none per number.
func TestJSONDecodeAllocs(t *testing.T) {
	body, ops := windowBatchAnswer()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodeJSONResults(body, false, ops); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(ops) + 1); allocs > want {
		t.Fatalf("decoding a 32-window answer allocates %.1f times, want <= %.0f (one per result and the result list)", allocs, want)
	}
}

// BenchmarkDecodeJSONResults is the client codec's own number: one
// 32-window /v1/batch answer (32 × 190 points, ~290 KB) through
// DecodeJSONResults, and through the reflective decode it replaced.
func BenchmarkDecodeJSONResults(b *testing.B) {
	body, ops := windowBatchAnswer()
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"one-pass", func() error { _, _, err := DecodeJSONResults(body, false, ops); return err }},
		{"encoding-json", func() error { _, _, err := decodeJSONResultsReflect(body, false, ops); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
