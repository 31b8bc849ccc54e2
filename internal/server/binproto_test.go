package server

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
	"rsmi/internal/workload"
)

// randomTestOp draws one op of any kind for round-trip tests.
func randomTestOp(rng *rand.Rand) BatchOp {
	x, y := rng.Float64(), rng.Float64()
	switch rng.Intn(5) {
	case 0:
		return BatchOp{Op: OpPoint, X: x, Y: y}
	case 1:
		return BatchOp{Op: OpWindow, MinX: x * 0.5, MinY: y * 0.5, MaxX: 0.5 + x*0.5, MaxY: 0.5 + y*0.5}
	case 2:
		return BatchOp{Op: OpKNN, X: x, Y: y, K: rng.Intn(8)}
	case 3:
		return BatchOp{Op: OpInsert, X: x, Y: y}
	default:
		return BatchOp{Op: OpDelete, X: x, Y: y}
	}
}

// TestBinaryOpsRoundTrip encodes random op lists and single ops and
// checks decode inverts encode exactly (float64 bit patterns included).
func TestBinaryOpsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20)
		ops := make([]BatchOp, n)
		b := appendBinHeader(nil)
		b = appendUvarint(b, uint64(n))
		var err error
		for i := range ops {
			ops[i] = randomTestOp(rng)
			if b, err = appendOp(b, ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := wire.DecodeOps(b, false)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d ops, want %d", len(got), n)
		}
		for i := range ops {
			if got[i] != ops[i] {
				t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
			}
		}
	}
	// Single-op frames, including non-finite coordinates (the protocol
	// carries them; the handler layer rejects them).
	for _, op := range []BatchOp{
		{Op: OpPoint, X: math.Inf(1), Y: math.NaN()},
		{Op: OpKNN, X: -1, Y: 2, K: 0},
		{Op: OpWindow, MinX: -0.0, MinY: 0, MaxX: 1e300, MaxY: 1},
	} {
		b, err := appendOp(appendBinHeader(nil), op)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := wire.DecodeOps(b, true)
		if err != nil {
			t.Fatalf("decode single: %v", err)
		}
		g, w := got[0], op
		same := g.Op == w.Op && g.K == w.K &&
			math.Float64bits(g.X) == math.Float64bits(w.X) &&
			math.Float64bits(g.Y) == math.Float64bits(w.Y) &&
			g.MinX == w.MinX && g.MinY == w.MinY && g.MaxX == w.MaxX && g.MaxY == w.MaxY
		if !same {
			t.Fatalf("single round-trip: %+v != %+v", g, w)
		}
	}
}

// TestBinaryResultsRoundTrip encodes answer lists through the server
// encoder and decodes them with the client decoder.
func TestBinaryResultsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(10)
		answers := make([]wire.Result, n)
		for i := range answers {
			switch rng.Intn(3) {
			case 0:
				answers[i] = wire.Result{Op: OpPoint, Flag: rng.Intn(2) == 0}
			case 1:
				answers[i] = wire.Result{Op: OpDelete, Flag: rng.Intn(2) == 0}
			default:
				pts := make([]geom.Point, rng.Intn(5))
				for j := range pts {
					pts[j] = geom.Pt(rng.Float64(), rng.Float64())
				}
				answers[i] = wire.Result{Op: OpWindow, Pts: pts}
			}
		}
		frame := wire.AppendAnswers(nil, answers, false, nil)
		rs, _, err := wire.DecodeResults(frame, false, opsOf(answers))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rs) != n {
			t.Fatalf("decoded %d results, want %d", len(rs), n)
		}
		for i, a := range answers {
			switch a.Op {
			case OpWindow:
				if rs[i].Op != a.Op || len(rs[i].Pts) != len(a.Pts) {
					t.Fatalf("result %d: %+v vs answer %+v", i, rs[i], a)
				}
				for j := range a.Pts {
					if rs[i].Pts[j] != a.Pts[j] {
						t.Fatalf("result %d point %d differs", i, j)
					}
				}
			default:
				if rs[i].Op != a.Op || rs[i].Flag != a.Flag {
					t.Fatalf("result %d: %+v vs answer %+v", i, rs[i], a)
				}
			}
		}
	}
}

// TestBinTraceGoldenBytes pins the rsmibin trace layout to the bytes the
// encoder wrote while the third counter still carried a batch size (the
// golden string is that encoder's output for a size of 0), and checks the
// reverse direction: a trace whose slot is non-zero, as a server of that
// time writes it, decodes to the same record. Either side of a stream
// connection can therefore be one release older than the other and still
// round-trip an EXPLAIN request.
func TestBinTraceGoldenBytes(t *testing.T) {
	tj := &TraceJSON{
		ID: 300, Backend: "Sharded", ShardsVisited: 2, BlockAccesses: 1234,
		Stages: []TraceStageJSON{{Stage: "admission", Us: 0.5}, {Stage: "execute", Us: 12.25}},
		Plan:   &wire.PlanJSON{Backend: "RR*", EstCostUS: 3, ActualCostUS: 4.5, EstRows: 100},
	}
	const golden = "03ac02075368617264656402d209" + "00" + // tag, id, backend, shards, accesses; the reserved slot
		"020961646d697373696f6e000000000000e03f076578656375746500000000008028400352522a000000000000084000000000000012400000000000005940"
	answer := wire.AppendAnswers(nil, []wire.Result{{Op: OpPoint, Flag: true}}, true, nil)
	if got := hex.EncodeToString(wire.AppendAnswers(nil, []wire.Result{{Op: OpPoint, Flag: true}}, true, tj)[len(answer):]); got != golden {
		t.Fatalf("trace bytes moved:\n got %s\nwant %s", got, golden)
	}
	for _, slot := range []string{"00", "11"} {
		old, err := hex.DecodeString(strings.Replace(golden, "d20900", "d209"+slot, 1))
		if err != nil {
			t.Fatal(err)
		}
		rs, got, err := wire.DecodeResults(append(answer, old...), true, []BatchOp{{Op: OpPoint}})
		if err != nil || len(rs) != 1 || !rs[0].Flag {
			t.Fatalf("slot %s: results %+v, err %v", slot, rs, err)
		}
		if !reflect.DeepEqual(got, tj) {
			t.Fatalf("slot %s: decoded %+v (plan %+v), want %+v", slot, got, got.Plan, tj)
		}
	}
}

// TestBinGoldenBytes pins rsmibin/1's request entries and results to
// golden hex: every op's entry (sub in both kinds, a negative k clamped to
// 0 in both places k rides), the explain bit in the single-op and the
// counted layout, and both result kinds. Each request frame must also
// decode back to its ops, clamped k and explain bit included.
func TestBinGoldenBytes(t *testing.T) {
	const (
		h    = "524201"           // magic 'R','B', version 1
		half = "000000000000e03f" // 0.5
		qtr  = "000000000000d03f" // 0.25
		one  = "000000000000f03f" // 1
		zero = "0000000000000000" // 0
	)
	requests := []struct {
		name    string
		ops     []BatchOp
		single  bool
		explain bool
		golden  string
		want    []BatchOp // what decodes; nil means ops
	}{
		{"point", []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.25}}, true, false, h + "01" + half + qtr, nil},
		{"window", []BatchOp{{Op: OpWindow, MinX: 0, MinY: 0.25, MaxX: 0.5, MaxY: 1}}, true, false, h + "02" + zero + qtr + half + one, nil},
		{"knn", []BatchOp{{Op: OpKNN, X: 0.5, Y: 0.25, K: 300}}, true, false, h + "03" + half + qtr + "ac02", nil},
		{"knn negative k", []BatchOp{{Op: OpKNN, X: 0.5, Y: 0.25, K: -3}}, true, false, h + "03" + half + qtr + "00",
			[]BatchOp{{Op: OpKNN, X: 0.5, Y: 0.25}}},
		{"insert", []BatchOp{{Op: OpInsert, X: 1, Y: 0}}, true, false, h + "04" + one + zero, nil},
		{"delete", []BatchOp{{Op: OpDelete, X: 0.25, Y: 0.5}}, true, false, h + "05" + qtr + half, nil},
		{"sql", []BatchOp{{Op: wire.OpSQL, SQL: "SELECT"}}, true, false, h + "06" + "06" + hex.EncodeToString([]byte("SELECT")), nil},
		{"sub window", []BatchOp{{Op: wire.OpSub, SubID: 300, SubKind: wire.SubWindow, MinX: 0, MinY: 0.25, MaxX: 0.5, MaxY: 1}}, false, false,
			h + "01" + "07" + "ac02" + "01" + zero + qtr + half + one, nil},
		{"sub knn", []BatchOp{{Op: wire.OpSub, SubID: 7, SubKind: wire.SubKNN, X: 0.5, Y: 0.25, K: 5}}, false, false,
			h + "01" + "07" + "07" + "02" + half + qtr + "05", nil},
		{"sub knn negative k", []BatchOp{{Op: wire.OpSub, SubID: 7, SubKind: wire.SubKNN, X: 0.5, Y: 0.25, K: -1}}, false, false,
			h + "01" + "07" + "07" + "02" + half + qtr + "00",
			[]BatchOp{{Op: wire.OpSub, SubID: 7, SubKind: wire.SubKNN, X: 0.5, Y: 0.25}}},
		{"unsub", []BatchOp{{Op: wire.OpUnsub, SubID: 300}}, false, false, h + "01" + "08" + "ac02", nil},
		{"explain single", []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.25}}, true, true, h + "81" + half + qtr, nil},
		{"explain counted", []BatchOp{{Op: OpInsert, X: 1, Y: 0}, {Op: wire.OpSQL}}, false, true,
			h + "02" + "84" + one + zero + "06" + "00", nil},
		{"counted", []BatchOp{{Op: OpDelete, X: 0.25, Y: 0.5}, {Op: OpKNN, X: 1, Y: 1, K: 1}}, false, false,
			h + "02" + "05" + qtr + half + "03" + one + one + "01", nil},
	}
	for _, c := range requests {
		b, err := wire.AppendOps(nil, c.ops, c.single, c.explain)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(b); got != c.golden {
			t.Errorf("%s: request bytes moved:\n got %s\nwant %s", c.name, got, c.golden)
		}
		want := c.want
		if want == nil {
			want = c.ops
		}
		ops, explain, err := wire.DecodeOps(b, c.single)
		if err != nil || !reflect.DeepEqual(ops, want) || explain != c.explain {
			t.Errorf("%s: decoded %+v (explain %v, err %v), want %+v (explain %v)", c.name, ops, explain, err, want, c.explain)
		}
	}

	pts := []geom.Point{geom.Pt(0.5, 0.25), geom.Pt(1, 0)}
	results := []struct {
		name   string
		frame  []byte
		golden string
	}{
		{"bool", wire.AppendAnswers(nil, []wire.Result{{Op: OpPoint, Flag: true}}, true, nil), h + "0101"},
		{"points", wire.AppendAnswers(nil, []wire.Result{{Op: OpWindow, Pts: pts}}, true, nil), h + "0202" + half + qtr + one + zero},
		{"counted", wire.AppendAnswers(nil, []wire.Result{
			{Op: OpDelete}, {Op: OpInsert, Flag: true}, {Op: OpKNN}, {Op: wire.OpSQL, Pts: pts[1:]},
		}, false, nil), h + "04" + "0100" + "0101" + "0200" + "0201" + one + zero},
	}
	for _, c := range results {
		if got := hex.EncodeToString(c.frame); got != c.golden {
			t.Errorf("%s: result bytes moved:\n got %s\nwant %s", c.name, got, c.golden)
		}
	}
}

// TestBinaryDecodeRejects covers the malformed-frame surface the fuzzer
// explores: every case must error, never panic or over-allocate.
func TestBinaryDecodeRejects(t *testing.T) {
	valid, err := appendOp(appendBinHeader(nil), BatchOp{Op: OpPoint, X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {'R'},
		"bad magic":        {'X', 'Y', 1, wire.Row(OpPoint)},
		"bad version":      {'R', 'B', 9, wire.Row(OpPoint)},
		"unknown op":       {'R', 'B', 1, 0x7f},
		"truncated point":  valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte{}, valid...), 0xee),
		"huge batch count": append(appendUvarint(appendBinHeader(nil), 1<<40), 0),
		"huge knn k": func() []byte {
			b := appendBinHeader(nil)
			b = append(b, wire.Row(OpKNN))
			b = appendF64(b, 0)
			b = appendF64(b, 0)
			return appendUvarint(b, 1<<30)
		}(),
	}
	for name, frame := range cases {
		if _, _, err := wire.DecodeOps(frame, true); err == nil {
			t.Errorf("wire.DecodeOps(single) accepted %s", name)
		}
	}
	// Batch decode must reject counts the frame cannot hold.
	big := appendUvarint(appendBinHeader(nil), 1000)
	if _, _, err := wire.DecodeOps(big, false); err == nil {
		t.Error("batch decode accepted count with no entries")
	}
	// Result decode: oversized points count must error before allocating.
	window := []BatchOp{{Op: OpWindow}}
	r := appendUvarint(append(appendBinHeader(nil), binResPoints), 1<<50)
	if _, _, err := wire.DecodeResults(r, true, window); err == nil {
		t.Error("result decode accepted absurd point count")
	}
	// Counts chosen so a naive n*16 / n*2 length check wraps uint64 to a
	// small number: the guards must still reject, not panic in makeslice.
	wrap16 := appendUvarint(append(appendBinHeader(nil), binResPoints), 1<<60)
	if _, _, err := wire.DecodeResults(wrap16, true, window); err == nil {
		t.Error("result decode accepted count wrapping n*16")
	}
	wrap2 := appendUvarint(appendBinHeader(nil), 1<<63)
	if _, _, err := wire.DecodeResults(wrap2, false, window); err == nil {
		t.Error("batch result decode accepted count wrapping n*2")
	}
}

// FuzzDecodeBinaryOps asserts the request decoder never panics and that
// everything it accepts re-encodes to a frame that decodes identically.
func FuzzDecodeBinaryOps(f *testing.F) {
	seed, _ := appendOp(appendBinHeader(nil), BatchOp{Op: OpPoint, X: 0.5, Y: 0.25})
	f.Add(seed, true)
	batch := appendUvarint(appendBinHeader(nil), 2)
	batch, _ = appendOp(batch, BatchOp{Op: OpWindow, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	batch, _ = appendOp(batch, BatchOp{Op: OpKNN, X: 0.1, Y: 0.9, K: 5})
	f.Add(batch, false)
	subs, _ := wire.AppendOps(nil, []BatchOp{
		{Op: wire.OpSub, SubID: 3, SubKind: wire.SubKNN, X: 0.5, Y: 0.5, K: 2},
		{Op: wire.OpSub, SubID: 4, SubKind: wire.SubWindow, MaxX: 1, MaxY: 1},
		{Op: wire.OpUnsub, SubID: 3},
		{Op: wire.OpSQL, SQL: "SELECT"},
	}, false, true)
	f.Add(subs, false)
	f.Add([]byte{'R', 'B', 1, 0xff, 0xff}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, single bool) {
		ops, _, err := wire.DecodeOps(data, single)
		if err != nil {
			return
		}
		b := appendBinHeader(nil)
		if !single {
			b = appendUvarint(b, uint64(len(ops)))
		}
		for _, op := range ops {
			var aerr error
			if b, aerr = appendOp(b, op); aerr != nil {
				t.Fatalf("accepted op %+v does not re-encode: %v", op, aerr)
			}
		}
		again, _, err := wire.DecodeOps(b, single)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("re-decode: %d ops, want %d", len(again), len(ops))
		}
		for i := range ops {
			g, w := again[i], ops[i]
			if g.Op != w.Op || g.K != w.K || g.SQL != w.SQL || g.SubID != w.SubID || g.SubKind != w.SubKind ||
				math.Float64bits(g.X) != math.Float64bits(w.X) ||
				math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(g.MinX) != math.Float64bits(w.MinX) ||
				math.Float64bits(g.MinY) != math.Float64bits(w.MinY) ||
				math.Float64bits(g.MaxX) != math.Float64bits(w.MaxX) ||
				math.Float64bits(g.MaxY) != math.Float64bits(w.MaxY) {
				t.Fatalf("op %d changed across round-trip: %+v != %+v", i, g, w)
			}
		}
	})
}

// FuzzDecodeBinaryResults asserts the response decoder (the client side)
// never panics on malformed frames, and that an answer it accepts holds
// one result per op, of its op: it decodes each frame against ops of both
// kinds, as many as the frame claims (a single answer's one).
func FuzzDecodeBinaryResults(f *testing.F) {
	f.Add(wire.AppendAnswers(nil, []wire.Result{{Op: OpPoint, Flag: true}}, true, nil), true)
	f.Add(wire.AppendAnswers(nil, []wire.Result{{Op: OpWindow, Pts: []geom.Point{geom.Pt(1, 2)}}}, true, nil), true)
	f.Add(wire.AppendAnswers(nil, []wire.Result{
		{Op: OpPoint, Flag: true},
		{Op: OpWindow, Pts: []geom.Point{geom.Pt(0.5, 0.5)}},
	}, false, nil), false)
	f.Fuzz(func(t *testing.T, data []byte, single bool) {
		n := uint64(1)
		if !single && len(data) > 3 {
			if c, w := binary.Uvarint(data[3:]); w > 0 && c <= 64 {
				n = c
			}
		}
		for _, kinds := range []uint64{0, ^uint64(0), 0b0110} {
			ops := fuzzOps(int(n), kinds)
			rs, _, err := wire.DecodeResults(data, single, ops)
			if err != nil {
				continue
			}
			if len(rs) != len(ops) {
				t.Fatalf("%d results for %d ops", len(rs), len(ops))
			}
			for i := range rs {
				if rs[i].Op != ops[i].Op {
					t.Fatalf("result %d answers %q, sent %q", i, rs[i].Op, ops[i].Op)
				}
			}
		}
	})
}

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
