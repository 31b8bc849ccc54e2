package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
)

// sqlRequest is the POST /v1/sql body.
type sqlRequest struct {
	Query string `json:"query"`
}

// maxBatchOps is the most ops one batch may carry in either codec.
const maxBatchOps = 16384

// requestJSON is the route's request document as the JSON client built
// it for json.Marshal before wire.AppendRequestJSON: the encoder's oracle.
func requestJSON(rt *wire.Spec, ops []BatchOp) interface{} {
	if !rt.Single() {
		return BatchRequest{Ops: ops}
	}
	switch op := ops[0]; rt.Req {
	case wire.ReqPoint:
		return PointJSON{X: op.X, Y: op.Y}
	case wire.ReqRect:
		return RectJSON{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY}
	case wire.ReqKNN:
		return KNNJSON{X: op.X, Y: op.Y, K: op.K}
	}
	return sqlRequest{Query: ops[0].SQL}
}

// unmarshalRequest is the server's request decode as it was: the body
// through json.Unmarshal into the route's document, refusing a batch of
// more than maxBatchOps ops. It is the oracle of wire.DecodeJSONRequest.
func unmarshalRequest(body []byte, rt *wire.Spec) ([]BatchOp, error) {
	op := BatchOp{Op: rt.Op}
	var err error
	switch rt.Req {
	case wire.ReqPoint:
		var v PointJSON
		err = json.Unmarshal(body, &v)
		op.X, op.Y = v.X, v.Y
	case wire.ReqRect:
		var v RectJSON
		err = json.Unmarshal(body, &v)
		op.MinX, op.MinY, op.MaxX, op.MaxY = v.MinX, v.MinY, v.MaxX, v.MaxY
	case wire.ReqKNN:
		var v KNNJSON
		err = json.Unmarshal(body, &v)
		op.X, op.Y, op.K = v.X, v.Y, v.K
	case wire.ReqSQL:
		var v sqlRequest
		err = json.Unmarshal(body, &v)
		op.SQL = v.Query
	default:
		var v BatchRequest
		if err = json.Unmarshal(body, &v); err == nil && len(v.Ops) > maxBatchOps {
			err = fmt.Errorf("batch exceeds %d ops", maxBatchOps)
		}
		return v.Ops, err
	}
	return []BatchOp{op}, err
}

// sameOps compares two decoded op lists field by field, coordinates by
// their bits.
func sameOps(got, want []BatchOp) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ops, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gf := [...]float64{g.X, g.Y, g.MinX, g.MinY, g.MaxX, g.MaxY}
		wf := [...]float64{w.X, w.Y, w.MinX, w.MinY, w.MaxX, w.MaxY}
		for j := range gf {
			if math.Float64bits(gf[j]) != math.Float64bits(wf[j]) {
				return fmt.Errorf("op %d: %+v, want %+v", i, g, w)
			}
		}
		g.X, g.Y, g.MinX, g.MinY, g.MaxX, g.MaxY = 0, 0, 0, 0, 0, 0
		w.X, w.Y, w.MinX, w.MinY, w.MaxX, w.MaxY = 0, 0, 0, 0, 0, 0
		if g != w {
			return fmt.Errorf("op %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// routeIndex returns the index of path's route among the routed rows.
func routeIndex(t testing.TB, path string) uint8 {
	t.Helper()
	for i := range wire.NumRoutes {
		if wire.Lookup(i).Path == path {
			return uint8(i)
		}
	}
	t.Fatalf("no route %s", path)
	return 0
}

// stale is a decode buffer full of another request's ops: whatever a
// decode leaves of it must not show.
func stale() []BatchOp {
	return append(make([]BatchOp, 0, 4), BatchOp{Op: "stale", X: 9, MaxY: 9, K: 9, SQL: "stale", SubID: 9, SubKind: "stale"})
}

// FuzzDecodeJSONRequest holds the server's request decode to
// json.Unmarshal: whatever bytes a client sends to whichever route, it
// never panics; and wire.DecodeJSONRequest — its one-pass walk, or
// json.Unmarshal where the walk declines — accepts exactly what
// json.Unmarshal accepts, with the same ops, into a reused buffer.
func FuzzDecodeJSONRequest(f *testing.F) {
	for _, c := range jsonRequestCorpus {
		f.Add([]byte(c.body), routeIndex(f, c.path))
	}
	rng := rand.New(rand.NewSource(26))
	for i := range wire.NumRoutes {
		body, err := wire.AppendRequestJSON(nil, wire.Lookup(i), randomRequestOps(rng, wire.Lookup(i), false))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint8(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, r uint8) {
		rt := wire.Lookup(r % wire.NumRoutes)
		want, wantErr := unmarshalRequest(body, rt)
		got, err := wire.DecodeJSONRequest(body, rt, stale())
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode says %v, json.Unmarshal says %v", err, wantErr)
		}
		if err == nil {
			if err := sameOps(got, want); err != nil {
				t.Fatalf("decode differs from json.Unmarshal: %v", err)
			}
		}
	})
}

// jsonRequestCorpus is the request decoder's seed corpus: what the walk
// reads itself (fast), what it leaves to json.Unmarshal, and what is
// refused (!ok), each with its verdict. The fuzz target starts from it;
// TestJSONRequestCorpusVerdicts keeps the names honest. Which way a body
// goes inside the decoder (fast) is internal/wire's to see: its test file
// holds this list body for body, and its TestJSONRequestWalkVerdicts holds
// the walk to each fast verdict. Edit the two together.
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

// TestJSONRequestCorpusVerdicts pins which way each corpus document goes
// and that every accepted one reads as json.Unmarshal reads it, and that
// a batch one op over maxBatchOps is refused whichever way it is read.
func TestJSONRequestCorpusVerdicts(t *testing.T) {
	for _, c := range jsonRequestCorpus {
		rt := wire.Lookup(routeIndex(t, c.path))
		got, err := wire.DecodeJSONRequest([]byte(c.body), rt, stale())
		want, wantErr := unmarshalRequest([]byte(c.body), rt)
		switch {
		case (err == nil) != c.ok:
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		case (wantErr == nil) != c.ok:
			t.Errorf("%s: json.Unmarshal says %v, want ok = %v", c.name, wantErr, c.ok)
		case c.ok:
			if err := sameOps(got, want); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}

	batch := func(n int) []byte {
		return []byte(`{"ops":[` + strings.Repeat(`{"op":"point"},`, n-1) + `{"op":"point"}]}`)
	}
	rt := wire.Lookup(routeIndex(t, "/v1/batch"))
	if ops, err := wire.DecodeJSONRequest(batch(maxBatchOps), rt, nil); err != nil || len(ops) != maxBatchOps {
		t.Fatalf("a batch of maxBatchOps: %d ops, %v", len(ops), err)
	}
	over := batch(maxBatchOps + 1)
	tooMany := fmt.Sprintf("batch exceeds %d ops", maxBatchOps)
	if _, err := wire.DecodeJSONRequest(over, rt, nil); err == nil || err.Error() != tooMany {
		t.Fatalf("the walk read one op over maxBatchOps to %v, want %q", err, tooMany)
	}
	if _, err := wire.DecodeJSONRequest([]byte(`{"OPS":`+string(over[len(`{"ops":`):])), rt, nil); err == nil || err.Error() != tooMany {
		t.Fatalf("json.Unmarshal's way read one op over maxBatchOps to %v, want %q", err, tooMany)
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

// randomRequestOps draws the ops of one request to rt the way the client
// builds them — one op of rt's kind, or a batch — with fields of every
// kind set at random: coordinates across the magnitudes the formatter
// special-cases, ±0 included, and strings HTML escaping, U+2028 or
// invalid UTF-8 reach. nonFinite lets a coordinate be NaN or ±Inf.
func randomRequestOps(rng *rand.Rand, rt *wire.Spec, nonFinite bool) []BatchOp {
	coord := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			if nonFinite {
				return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		case 3:
			return math.Trunc(rng.NormFloat64() * 1e4)
		case 4, 5, 6:
			return rng.Float64()
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	str := func() string {
		return [...]string{"", "", "SELECT * FROM points ORDER BY ST_Distance(pt, POINT(0.5, 0.1)) LIMIT 10",
			"a < b && c > d", "line\u2028separator", "\xff\xfe not UTF-8", `quote " back \ slash`, "tab\t", "é", "del \x7f",
			OpWindow, OpKNN}[rng.Intn(12)]
	}
	op := func(name string) BatchOp {
		return BatchOp{
			Op: name, X: coord(), Y: coord(), K: rng.Intn(300) - 20,
			MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord(),
			SQL: str(), SubID: [...]uint64{0, uint64(rng.Intn(100)), rng.Uint64()}[rng.Intn(3)], SubKind: str(),
		}
	}
	if rt.Single() {
		return []BatchOp{op(rt.Op)}
	}
	if rng.Intn(10) == 0 {
		return nil
	}
	names := [...]string{OpPoint, OpWindow, OpKNN, OpInsert, OpDelete, wire.OpSQL, wire.OpSub, wire.OpUnsub, "", "teleport"}
	ops := make([]BatchOp, rng.Intn(6))
	for i := range ops {
		ops[i] = op(names[rng.Intn(len(names))])
		if rng.Intn(2) == 0 { // a typical op leaves most fields empty
			ops[i] = BatchOp{Op: ops[i].Op, X: ops[i].X, Y: ops[i].Y}
		}
	}
	return ops
}

// TestJSONRequestEncodeMatchesMarshal holds the client's request encoder
// to json.Marshal of the documents it replaced, on every route: the same
// bytes, or the same error for a coordinate JSON cannot spell.
func TestJSONRequestEncodeMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 300; round++ {
		for i := range wire.NumRoutes {
			rt := wire.Lookup(i)
			ops := randomRequestOps(rng, rt, true)
			want, wantErr := json.Marshal(requestJSON(rt, ops))
			got, err := wire.AppendRequestJSON(nil, rt, ops)
			switch {
			case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
				t.Fatalf("%s %+v: error %v, json.Marshal says %v", rt.Path, ops, err, wantErr)
			case wantErr == nil && (err != nil || !bytes.Equal(got, want)):
				t.Fatalf("%s (%v):\n got %s\nwant %s", rt.Path, err, got, want)
			}
		}
	}
}

// TestJSONRequestDecodeReadsEveryEncoding is the encoder→decoder
// property: whatever wire.AppendRequestJSON writes, on any route, the
// server reads to the ops json.Unmarshal reads.
func TestJSONRequestDecodeReadsEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for round := 0; round < 300; round++ {
		for i := range wire.NumRoutes {
			rt := wire.Lookup(i)
			body, err := wire.AppendRequestJSON(nil, rt, randomRequestOps(rng, rt, false))
			if err != nil {
				t.Fatal(err)
			}
			want, err := unmarshalRequest(body, rt)
			if err != nil {
				t.Fatalf("%s: json.Unmarshal refuses the encoder's %s: %v", rt.Path, body, err)
			}
			got, err := wire.DecodeJSONRequest(body, rt, stale())
			if err == nil {
				err = sameOps(got, want)
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", rt.Path, err, body)
			}
		}
	}
}

// windowBatchRequest is the 32-window /v1/batch request the decode
// numbers are quoted on, as the client writes it.
func windowBatchRequest(t testing.TB) (body []byte, rt *wire.Spec) {
	rng := rand.New(rand.NewSource(4))
	ops := make([]BatchOp, 32)
	for i := range ops {
		q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.01, 0.01)
		ops[i] = BatchOp{Op: OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
	}
	rt = wire.Lookup(routeIndex(t, "/v1/batch"))
	body, err := wire.AppendRequestJSON(nil, rt, ops)
	if err != nil {
		t.Fatal(err)
	}
	return body, rt
}

var sinkOps []BatchOp

// TestJSONRequestDecodeAllocs pins the request decode at its ops slice:
// into a nil buffer a 32-window batch allocates exactly what appending
// 32 ops to a nil slice does, and into a buffer with room nothing — no
// allocation per op, per key or per number.
func TestJSONRequestDecodeAllocs(t *testing.T) {
	body, rt := windowBatchRequest(t)
	growth := testing.AllocsPerRun(50, func() {
		sinkOps = nil
		for i := 0; i < 32; i++ {
			sinkOps = append(sinkOps, BatchOp{})
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if sinkOps, _ = wire.DecodeJSONRequest(body, rt, nil); len(sinkOps) != 32 {
			t.Fatalf("decoded %d ops", len(sinkOps))
		}
	})
	buf := make([]BatchOp, 0, 32)
	warm := testing.AllocsPerRun(50, func() {
		if sinkOps, _ = wire.DecodeJSONRequest(body, rt, buf); len(sinkOps) != 32 {
			t.Fatalf("decoded %d ops", len(sinkOps))
		}
	})
	if fresh != growth || warm != 0 {
		t.Fatalf("a 32-window batch allocates %.1f times into nil (the ops slice alone: %.1f) and %.1f into room, want 0", fresh, growth, warm)
	}
}

// TestJSONNumberMatchesParseFloat holds the decoder's numbers to
// strconv.ParseFloat bit for bit: on the edges of its exact path, and on
// 5 M numbers as the JSON client writes them (random bit patterns,
// uniform [0, 1), normal × 1e6). Each is the x of a /v1/point document; a
// number beyond float64's range, which ParseFloat reads as ±Inf, is
// refused, and so is every text JSON does not spell as a number. The
// scanner under it, and where it stops, is held to ParseFloat by
// internal/wire's TestScanJSONFloatMatchesParseFloat.
func TestJSONNumberMatchesParseFloat(t *testing.T) {
	point := wire.Lookup(wire.Row(OpPoint))
	var doc []byte
	var buf []BatchOp
	read := func(text string) (float64, error) {
		doc = append(append(append(doc[:0], `{"x":`...), text...), `,"y":0}`...)
		ops, err := wire.DecodeJSONRequest(doc, point, buf)
		if err != nil {
			return 0, err
		}
		buf = ops
		return ops[0].X, nil
	}
	check := func(text string) {
		t.Helper()
		want, err := strconv.ParseFloat(text, 64)
		got, derr := read(text)
		if (derr != nil) != (err != nil) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%v), ParseFloat says %v (%v)", text, got, derr, want, err)
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
		check(s)
		if s[0] != '-' {
			check("-" + s)
		}
	}
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1e", "1e+", "Inf", "-Inf", "NaN", "_1", "-.5", "- 1",
		"01", "0x1p-2", "1_000", "1.5.5", "2e3e4"} {
		if v, err := read(s); err == nil {
			t.Fatalf("%q: read as the number %v", s, v)
		}
	}

	n := 5_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(26))
	var body []byte
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
		body, _ = wire.AppendRequestJSON(body[:0], point, []BatchOp{{X: v}})
		check(string(body[len(`{"x":`) : len(body)-len(`,"y":0}`)]))
	}
}
