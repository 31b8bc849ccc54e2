package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"rsmi/internal/geom"
)

// Hex of the little-endian float64s the frame goldens carry.
const (
	goldenHalf = "000000000000e03f" // 0.5
	goldenQtr  = "000000000000d03f" // 0.25
	goldenOne  = "000000000000f03f" // 1
	goldenZero = "0000000000000000" // 0
)

// streamFrame frames payload as the stream transport does: the length
// word, request id id, then what fill appends.
func streamFrame(id uint64, fill func([]byte) []byte) []byte {
	b := fill(OpenStreamFrame(nil, id))
	CloseFrame(b, 0)
	return b
}

// TestStreamFrameGoldenBytes pins whole rsmistream response frames —
// length word, request id, status byte and body — to golden hex: status
// 0 wrapping an rsmibin batch response, and status 1 carrying an error
// code and message. Each must decode back to what was written.
func TestStreamFrameGoldenBytes(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.25)}
	ops := []BatchOp{{Op: OpPoint}, {Op: OpWindow}}
	frame := streamFrame(300, func(b []byte) []byte {
		return AppendStreamAnswers(b, []Result{{Op: OpPoint, Flag: true}, {Op: OpWindow, Pts: pts}}, nil)
	})
	ok := "1b000000" + "ac02" + "00" + "524201" + "02" + "0101" + "0201" + goldenHalf + goldenQtr
	if got := hex.EncodeToString(frame); got != ok {
		t.Fatalf("status-0 frame moved:\n got %s\nwant %s", got, ok)
	}
	frame = streamFrame(7, func(b []byte) []byte { return AppendStreamError(b, 429, "busy") })
	fail := "09000000" + "07" + "01" + "ad03" + "04" + hex.EncodeToString([]byte("busy"))
	if got := hex.EncodeToString(frame); got != fail {
		t.Fatalf("status-1 frame moved:\n got %s\nwant %s", got, fail)
	}

	for _, c := range []struct {
		golden string
		check  func(id uint64, payload []byte) error
	}{
		{ok, func(id uint64, payload []byte) error {
			rs, tj, err := DecodeStreamResponse(payload, ops)
			if err != nil || id != 300 || tj != nil || len(rs) != 2 || !rs[0].Flag || len(rs[1].Pts) != 1 || rs[1].Pts[0] != pts[0] {
				return errors.New("status 0 decoded otherwise")
			}
			return nil
		}},
		{fail, func(id uint64, payload []byte) error {
			_, _, err := DecodeStreamResponse(payload, ops)
			var se *StatusError
			if id != 7 || !errors.As(err, &se) || se.Code != 429 || se.Msg != "busy" {
				return errors.New("status 1 decoded otherwise")
			}
			return nil
		}},
	} {
		frame, _ := hex.DecodeString(c.golden)
		id, payload, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(frame)), 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(id, payload); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
	}
}

// TestPushFrameGoldenBytes pins the server-initiated push frame: request
// id 0, status 2, then per notification its subscription id, write kind
// (insert, delete) and flags (missed set, clear) and the point.
func TestPushFrameGoldenBytes(t *testing.T) {
	frame := streamFrame(PushID, func(b []byte) []byte {
		b = AppendPush(b, 2)
		b = AppendPushEntry(b, 300, kindInsert, false, geom.Pt(0.5, 0.25))
		return AppendPushEntry(b, 7, kindDelete, true, geom.Pt(1, 0))
	})
	const golden = "2a000000" + "00" + "02" + "02" +
		"ac02" + "01" + "00" + goldenHalf + goldenQtr +
		"07" + "02" + "01" + goldenOne + goldenZero
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("push frame moved:\n got %s\nwant %s", got, golden)
	}
	id, payload, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(frame)), 1<<20, nil)
	if err != nil || id != 0 {
		t.Fatalf("push frame read as id %d, %v", id, err)
	}
	ns, err := DecodePush(payload)
	want := []Notification{
		{SubID: 300, Kind: OpInsert, Point: geom.Pt(0.5, 0.25)},
		{SubID: 7, Kind: OpDelete, Point: geom.Pt(1, 0), Missed: true},
	}
	if err != nil || len(ns) != 2 || ns[0] != want[0] || ns[1] != want[1] {
		t.Fatalf("push frame decoded as %+v, %v; want %+v", ns, err, want)
	}
}

// TestReplFeedGoldenBytes pins the oplog feed: the replica's handshake,
// an ops frame with an insert, a delete and a rebuild record, a
// heartbeat, and the resync frame the primary sends an unservable
// position. Each is read back by its decoder.
func TestReplFeedGoldenBytes(t *testing.T) {
	const rl = "524c02"               // magic 'R','L', version 2
	handshake := rl + "8202" + "ac02" // epoch 258, from 300
	if got := hex.EncodeToString(AppendFeedHandshake(nil, 258, 300)); got != handshake {
		t.Fatalf("handshake moved:\n got %s\nwant %s", got, handshake)
	}
	raw, _ := hex.DecodeString(handshake)
	if epoch, from, err := DecodeFeedHandshake(raw); !IsFeedHandshake(raw) || err != nil || epoch != 258 || from != 300 {
		t.Fatalf("handshake decoded as (%d, %d), %v", epoch, from, err)
	}

	ops := rl + "01" + "03" +
		"01" + "01" + "ac02" + goldenHalf + goldenQtr +
		"02" + "02" + "ad02" + goldenOne + goldenZero +
		"03" + "03" + "ae02"
	recs := []FeedRecord{
		{Seq: 1, Kind: kindInsert, P: geom.Pt(0.5, 0.25), At: 300},
		{Seq: 2, Kind: kindDelete, P: geom.Pt(1, 0), At: 301},
		{Seq: 3, Kind: kindRebuild, At: 302},
	}
	if got := hex.EncodeToString(AppendFeedOps(nil, recs)); got != ops {
		t.Fatalf("ops frame moved:\n got %s\nwant %s", got, ops)
	}
	var f FeedFrame
	raw, _ = hex.DecodeString(ops)
	if err := f.Decode(raw); err != nil || f.Type != FeedOps || len(f.Recs) != 3 {
		t.Fatalf("ops frame read as type %d with %d records, %v", f.Type, len(f.Recs), err)
	}
	for i, rec := range f.Recs {
		if rec != recs[i] {
			t.Fatalf("record %d read as %+v, want %+v", i, rec, recs[i])
		}
	}

	heartbeat := rl + "03" + "ac02" + "8080a8b1e39fe7cb17" // last seq 300, clock 1.7e18 ns
	if got := hex.EncodeToString(AppendFeedHeartbeat(nil, 300, 1_700_000_000_000_000_000)); got != heartbeat {
		t.Fatalf("heartbeat moved:\n got %s\nwant %s", got, heartbeat)
	}
	raw, _ = hex.DecodeString(heartbeat)
	if err := f.Decode(raw); err != nil || f.Type != FeedHeartbeat || f.LastSeq != 300 || f.Clock != 1_700_000_000_000_000_000 {
		t.Fatalf("heartbeat read as type %d seq %d clock %d, %v", f.Type, f.LastSeq, f.Clock, err)
	}

	// The resync frame as the primary writes it: the length word (feed
	// frames carry no request id), then the primary's epoch.
	const resync = "06000000" + rl + "02" + "8202"
	frame := AppendFeedResync(OpenFrame(nil), 258)
	CloseFrame(frame, 0)
	if got := hex.EncodeToString(frame); got != resync {
		t.Fatalf("resync frame moved:\n got %s\nwant %s", got, resync)
	}
	if err := f.Decode(frame[4:]); err != nil || f.Type != FeedResync {
		t.Fatalf("resync frame read as type %d, %v", f.Type, err)
	}
}

// fuzzMaxFrame is the largest frame FuzzStreamFrame reads: the server's
// bound on a request frame.
const fuzzMaxFrame = 8 << 20

// FuzzStreamFrame asserts the stream frame reader and both payload
// decoders never panic on arbitrary bytes, and that an accepted frame's
// id round-trips through the writer's framing. The response decoder reads
// each payload against ops of both kinds, as many as it claims.
func FuzzStreamFrame(f *testing.F) {
	valid := func(id uint64, payload []byte) []byte {
		return streamFrame(id, func(b []byte) []byte { return append(b, payload...) })
	}
	body, _ := AppendOps(nil, []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.25}}, false, false)
	f.Add(valid(1, body))
	f.Add(valid(1<<40, AppendStreamAnswers(nil, []Result{{Op: OpPoint, Flag: true}}, nil)))
	f.Add(valid(9, AppendStreamError(nil, 400, "hi")))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0x80, 0, 1}) // claims fuzzMaxFrame, delivers one byte
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		id, payload, err := ReadStreamFrame(br, fuzzMaxFrame, nil)
		if err != nil {
			return
		}
		// Whatever the payload, neither decoder may panic.
		DecodeOps(payload, false)
		n := claimedCount(payload[min(len(payload), 4):]) // after the status byte and the header
		for _, kinds := range []uint64{0, ^uint64(0), 0b0110} {
			DecodeStreamResponse(payload, fuzzOps(n, kinds))
		}
		// The id survives re-framing.
		reframed := valid(id, payload)
		id2, payload2, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(reframed)), fuzzMaxFrame, nil)
		if err != nil || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-framed frame mismatched: id %d vs %d, err %v", id2, id, err)
		}
	})
}

// FuzzPushPayload asserts the client's push decoder never panics and
// only ever yields insert/delete notifications.
func FuzzPushPayload(f *testing.F) {
	valid := AppendPush(nil, 2)
	valid = AppendPushEntry(valid, 1, kindInsert, false, geom.Pt(0.25, 0.75))
	valid = AppendPushEntry(valid, 9, kindDelete, true, geom.Pt(0.5, 0.5))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                                        // truncated entry
	f.Add([]byte{statusPush, 0xff, 0xff, 0xff, 0x7f})                                  // absurd count
	f.Add([]byte{statusPush, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown kind
	f.Add(append(append([]byte{}, valid...), 0))                                       // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		ns, err := DecodePush(data)
		if err != nil {
			return
		}
		for _, n := range ns {
			if n.Kind != OpInsert && n.Kind != OpDelete {
				t.Fatalf("decoded push kind %q", n.Kind)
			}
		}
	})
}

// FuzzSubscribeFrame asserts the rsmibin decoder never panics on
// arbitrary sub/unsub bytes, and that accepted subscription ops
// round-trip through the encoder.
func FuzzSubscribeFrame(f *testing.F) {
	mk := func(op BatchOp) []byte {
		b, _ := AppendOps(nil, []BatchOp{op}, false, false)
		return b
	}
	f.Add(mk(BatchOp{Op: OpSub, SubID: 1, SubKind: SubWindow, MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.9}))
	f.Add(mk(BatchOp{Op: OpSub, SubID: 1 << 40, SubKind: SubKNN, X: 0.5, Y: 0.5, K: 16}))
	f.Add(mk(BatchOp{Op: OpUnsub, SubID: 7}))
	// Unknown kind byte (after header, count, op byte and id) and a
	// truncated window.
	unknown := mk(BatchOp{Op: OpSub, SubID: 1, SubKind: SubWindow})[:7]
	unknown[6] = 99
	f.Add(unknown)
	f.Add(mk(BatchOp{Op: OpSub, SubID: 1, SubKind: SubWindow, MaxX: 1, MaxY: 1})[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, _, err := DecodeOps(data, false)
		if err != nil {
			return
		}
		for _, op := range ops {
			if op.Op != OpSub && op.Op != OpUnsub {
				continue
			}
			// Re-encode and re-decode: subscription fields survive.
			b, aerr := AppendOps(nil, []BatchOp{op}, false, false)
			if aerr != nil {
				t.Fatalf("decoded op does not re-encode: %+v: %v", op, aerr)
			}
			ops2, _, derr := DecodeOps(b, false)
			if derr != nil || len(ops2) != 1 {
				t.Fatalf("re-decode: %v (%d ops)", derr, len(ops2))
			}
			if got := ops2[0]; got.Op != op.Op || got.SubID != op.SubID || got.SubKind != op.SubKind ||
				math.Float64bits(got.MinX) != math.Float64bits(op.MinX) ||
				math.Float64bits(got.MaxY) != math.Float64bits(op.MaxY) ||
				math.Float64bits(got.X) != math.Float64bits(op.X) || got.K != op.K {
				t.Fatalf("round-trip changed the Op: %+v vs %+v", got, op)
			}
		}
	})
}
