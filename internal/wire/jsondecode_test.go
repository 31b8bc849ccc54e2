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
