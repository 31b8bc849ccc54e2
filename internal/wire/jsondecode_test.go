package wire

import (
	"bytes"
	"encoding/json"
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

// TestScanJSONFloatMatchesParseFloat holds scanJSONFloat to
// strconv.ParseFloat bit for bit: on the edges of its exact path, and on
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
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e5", "1", "7e0",
		"0.1234567890123456789012", "0.12345678901234567890123", // 22 and 23 fraction digits
		"9007199254740992", "9007199254740993", "9007199254740991", "9007199254740992e22", // 2^53, 2^53 + 1
		"1234567890123456789", "12345678901234567890", "12345678901234567891", // 19 and 20 significant digits
		"0.1234567890123456789", "0.12345678901234567891", "1.0000000000000000000000001",
		"1e22", "1e23", "1e-7", "1e-22", "1e-23", "4.35e-22", "100000000000000000000000",
		"0.000001", "0.0000001", "0.000000123456789", "0.00000000000000000000000000001", // leading zeros in the fraction
		"1.7976931348623157e308", "1.7976931348623159e308", "1e309", "1e-400", "5e-324", "2.2250738585072014e-308",
		"123456789012345678901234567890e-10", "0e999999", "1E+2", "1e+00", "1e0000000000000000000001", "1e-99999999999999999999",
	} {
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

// route returns the routed row serving path.
func route(t testing.TB, path string) *Spec {
	t.Helper()
	for i := range NumRoutes {
		if Lookup(i).Path == path {
			return Lookup(i)
		}
	}
	t.Fatalf("no route %s", path)
	return nil
}

// jsonRequestCorpus is internal/server's request corpus of the same
// name, body for body: what the walk reads itself (fast), what it leaves
// to json.Unmarshal, and what is refused (!ok). The server's copy seeds
// FuzzDecodeJSONRequest and pins each body's verdict through
// DecodeJSONRequest; this one pins which way each body goes inside it.
// Edit the two together.
var jsonRequestCorpus = []struct {
	name, path, body string
	fast, ok         bool
}{
	{"point", "/v1/point", `{"x":0.5,"y":0.25}`, true, true},
	{"window", "/v1/window", `{"min_x":0.1,"min_y":0.2,"max_x":0.3,"max_y":0.4}`, true, true},
	{"knn", "/v1/knn", `{"x":0.5,"y":0.5,"k":10}`, true, true},
	{"negative k", "/v1/knn", `{"x":0.5,"y":0.5,"k":-3}`, true, true},
	{"smallest k", "/v1/knn", `{"x":0,"y":0,"k":-9223372036854775808}`, true, true},
	{"largest sub_id", "/v1/batch", `{"ops":[{"op":"unsub","sub_id":18446744073709551615}]}`, true, true},
	{"sql", "/v1/sql", `{"query":"SELECT * FROM points WHERE ST_Within(pt, BOX(0.4, 0.2, 0.6, 0.4))"}`, true, true},
	{"non-ASCII string, raw U+2028", "/v1/sql", "{\"query\":\"é ü 日本 \u2028\"}", true, true},
	{"batch of every op", "/v1/batch", `{"ops":[{"op":"point","x":0.5,"y":0.5},{"op":"window","min_x":0,"min_y":0,"max_x":1,"max_y":1},` +
		`{"op":"knn","x":1,"y":2,"k":3},{"op":"insert","x":0.25},{"op":"delete","y":0.75},{"op":"sql","sql":"SELECT"},` +
		`{"op":"sub","sub_id":7,"sub_kind":"window","max_x":1},{"op":"unsub","sub_id":7},{"op":"teleport"}]}`, true, true},
	{"op with no keys", "/v1/batch", `{"ops":[{}]}`, true, true},
	{"empty batch", "/v1/batch", `{"ops":[]}`, true, true},
	{"batch without ops", "/v1/batch", `{}`, true, true},
	{"null ops", "/v1/batch", `{"ops":null}`, true, true},
	{"empty point document", "/v1/point", `{}`, true, true},
	{"whitespace everywhere", "/v1/insert", " {\n\t\"y\" : 2 ,\r\n \"x\" : -1E3 } \n", true, true},
	{"keys in any order", "/v1/window", `{"max_y":1,"min_x":0,"max_x":1,"min_y":0}`, true, true},
	{"-0, exponents, underflow", "/v1/point", `{"x":-0,"y":1e-400}`, true, true},

	{"upper-case keys", "/v1/point", `{"X":0.5,"Y":0.5}`, false, true},
	{"upper-case batch", "/v1/batch", `{"OPS":[{"OP":"point","X":0.5,"Y":0.5}]}`, false, true},
	{"escaped key", "/v1/point", `{"\u0078":1,"y":2}`, false, true},
	{"escaped string", "/v1/sql", `{"query":"a \u003c b\n"}`, false, true},
	{"invalid UTF-8", "/v1/sql", "{\"query\":\"\xff\xfe\"}", false, true},
	{"Kelvin sign for k", "/v1/knn", "{\"x\":1,\"y\":2,\"\u212a\":5}", false, true},
	{"unknown key", "/v1/point", `{"x":1,"y":2,"z":[1,{"a":null}]}`, false, true},
	{"another shape's key", "/v1/point", `{"x":1,"y":2,"k":3}`, false, true},
	{"coordinate given twice", "/v1/point", `{"x":1,"x":2,"y":3}`, false, true},
	{"ops given twice", "/v1/batch", `{"ops":[{"op":"point","x":1}],"ops":[{"y":2}]}`, false, true},
	{"null coordinate", "/v1/point", `{"x":null,"y":1}`, false, true},
	{"null document", "/v1/point", `null`, false, true},
	{"null op", "/v1/batch", `{"ops":[null]}`, false, true},

	{"trailing garbage", "/v1/point", `{"x":0.5,"y":0.5}garbage`, false, false},
	{"second document", "/v1/insert", `{"x":0.25,"y":0.25} {"x":"oops"}`, false, false},
	{"trailing brackets", "/v1/batch", `{"ops":[{"op":"point","x":0.5,"y":0.5}]}]]]`, false, false},
	{"empty body", "/v1/point", ``, false, false},
	{"truncated", "/v1/window", `{"min_x":0.5,`, false, false},
	{"not an object", "/v1/point", `[0.5,0.5]`, false, false},
	{"string coordinate", "/v1/point", `{"x":"1","y":2}`, false, false},
	{"NaN", "/v1/point", `{"x":NaN,"y":1}`, false, false},
	{"out of range", "/v1/point", `{"x":1e999,"y":1}`, false, false},
	{"leading zero", "/v1/point", `{"x":01,"y":1}`, false, false},
	{"fractional k", "/v1/knn", `{"x":0,"y":0,"k":2.5}`, false, false},
	{"k with an exponent", "/v1/knn", `{"x":0,"y":0,"k":1e2}`, false, false},
	{"k beyond int", "/v1/knn", `{"x":0,"y":0,"k":9223372036854775808}`, false, false},
	{"sub_id beyond uint64", "/v1/batch", `{"ops":[{"op":"unsub","sub_id":18446744073709551616}]}`, false, false},
	{"negative sub_id", "/v1/batch", `{"ops":[{"op":"sub","sub_id":-1}]}`, false, false},
	{"op not a string", "/v1/batch", `{"ops":[{"op":1}]}`, false, false},
	{"ops not an array", "/v1/batch", `{"ops":{}}`, false, false},
	{"control byte in a string", "/v1/sql", "{\"query\":\"a\nb\"}", false, false},
	{"trailing comma", "/v1/point", `{"x":1,"y":2,}`, false, false},
}

// TestJSONRequestWalkVerdicts pins, for every corpus body, whether the
// one-pass walk reads it itself (fast) or declines it, and holds the walk
// to json.Unmarshal's ops where it reads and json.Unmarshal's verdict
// where it declines: every body the walk declines is refused or read
// through json.Unmarshal, as ok says. It also pins that the walk counts a
// batch one op over maxBatchOps as errTooManyOps, and that it reads every
// document AppendRequestJSON writes unless json.Marshal had to escape one
// of its strings.
func TestJSONRequestWalkVerdicts(t *testing.T) {
	for _, c := range jsonRequestCorpus {
		rt := route(t, c.path)
		want, wantErr := unmarshalJSONRequest([]byte(c.body), rt, nil)
		got, err := scanJSONRequest([]byte(c.body), rt, nil)
		switch {
		case (err == nil) != c.fast:
			t.Errorf("%s: the walk says %v, want fast = %v", c.name, err, c.fast)
		case (wantErr == nil) != c.ok:
			t.Errorf("%s: json.Unmarshal says %v, want ok = %v", c.name, wantErr, c.ok)
		case err == nil && (len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want)):
			t.Errorf("%s: the walk read %+v, json.Unmarshal %+v", c.name, got, want)
		}
	}

	rt := route(t, "/v1/batch")
	over := []byte(`{"ops":[` + strings.Repeat(`{"op":"point"},`, maxBatchOps) + `{"op":"point"}]}`)
	if _, err := scanJSONRequest(over, rt, nil); err != errTooManyOps {
		t.Fatalf("the walk read one op over maxBatchOps to %v, want errTooManyOps", err)
	}

	rng := rand.New(rand.NewSource(2026))
	walked, written := 0, 0
	for round := 0; round < 300; round++ {
		for i := range NumRoutes {
			rt := Lookup(i)
			body, err := AppendRequestJSON(nil, rt, randomRequestOps(rng, rt))
			if err != nil {
				t.Fatal(err)
			}
			written++
			_, err = scanJSONRequest(body, rt, nil)
			switch escaped := bytes.IndexByte(body, '\\') >= 0; {
			case err != nil && !escaped:
				t.Fatalf("%s: the walk declined a document with nothing escaped (%v)\n%s", rt.Path, err, body)
			case err == nil:
				walked++
			}
		}
	}
	if walked < written/2 {
		t.Fatalf("only %d of %d documents walked", walked, written)
	}
}

// randomRequestOps draws the ops of one request to rt the way the client
// builds them, with strings HTML escaping, U+2028 or invalid UTF-8 reach.
func randomRequestOps(rng *rand.Rand, rt *Spec) []BatchOp {
	coord := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)) }
	str := func() string {
		return [...]string{"", "SELECT * FROM points LIMIT 10", "a < b && c > d", "line\u2028separator",
			"\xff\xfe not UTF-8", `quote " back \ slash`, "é", OpWindow}[rng.Intn(8)]
	}
	op := func(name string) BatchOp {
		return BatchOp{Op: name, X: coord(), Y: coord(), K: rng.Intn(300) - 20,
			MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord(), SQL: str(), SubID: rng.Uint64(), SubKind: str()}
	}
	if rt.Single() {
		return []BatchOp{op(rt.Op)}
	}
	ops := make([]BatchOp, rng.Intn(6))
	for i := range ops {
		ops[i] = op([...]string{OpPoint, OpWindow, OpKNN, OpInsert, OpDelete, OpSQL, OpSub, OpUnsub}[rng.Intn(8)])
		if rng.Intn(2) == 0 { // a typical op leaves most fields empty
			ops[i] = BatchOp{Op: ops[i].Op, X: ops[i].X, Y: ops[i].Y}
		}
	}
	return ops
}

// decodeJSONResultsReflect is the client's answer decode before
// DecodeJSONResults: one encoding/json pass into a union of the answer
// documents. BenchmarkDecodeJSONResults quotes it beside the one-pass
// decoder.
func decodeJSONResultsReflect(body []byte, ops []BatchOp) ([]Result, error) {
	type result struct {
		Found   bool         `json:"found"`
		Deleted bool         `json:"deleted"`
		OK      bool         `json:"ok"`
		Points  []geom.Point `json:"points"`
	}
	var doc struct {
		Results []result   `json:"results"`
		Trace   *TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return nil, err
	}
	if len(doc.Results) != len(ops) {
		return nil, fmt.Errorf("%d results for %d ops", len(doc.Results), len(ops))
	}
	rs := make([]Result, len(ops))
	for i, r := range doc.Results {
		rs[i] = Result{Op: ops[i].Op, Flag: r.Found || r.OK || r.Deleted, Pts: r.Points}
	}
	return rs, nil
}

// BenchmarkDecodeJSONResults is the client codec's own number: one
// 32-window /v1/batch answer (32 × 190 points, ~290 KB) through
// DecodeJSONResults, and through the reflective decode it replaced.
func BenchmarkDecodeJSONResults(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	answers := make([]Result, 32)
	ops := make([]BatchOp, len(answers))
	for i := range answers {
		pts := make([]geom.Point, 190)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i], ops[i] = Result{Op: OpWindow, Pts: pts}, BatchOp{Op: OpWindow}
	}
	body := AppendAnswersJSON(nil, &table[BatchRow], answers, nil)
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"one-pass", func() error { _, _, err := DecodeJSONResults(body, false, ops); return err }},
		{"encoding-json", func() error { _, err := decodeJSONResultsReflect(body, ops); return err }},
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

var sinkOps []BatchOp

// BenchmarkDecodeJSONRequest is the server codec's own number: one
// 32-window /v1/batch request through DecodeJSONRequest into a reused
// buffer, as the server decodes it, and through json.Unmarshal, the
// decode it replaced.
func BenchmarkDecodeJSONRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ops := make([]BatchOp, 32)
	for i := range ops {
		q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.01, 0.01)
		ops[i] = BatchOp{Op: OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
	}
	rt := route(b, "/v1/batch")
	body, err := AppendRequestJSON(nil, rt, ops)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]BatchOp, 0, 32)
	for _, c := range []struct {
		name   string
		decode func() ([]BatchOp, error)
	}{
		{"one-pass", func() ([]BatchOp, error) { return DecodeJSONRequest(body, rt, buf) }},
		{"encoding-json", func() ([]BatchOp, error) { return unmarshalJSONRequest(body, rt, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ops, err := c.decode()
				if err != nil || len(ops) != 32 {
					b.Fatalf("%d ops, %v", len(ops), err)
				}
				sinkOps = ops
			}
		})
	}
}
