package wire

// rsmistream — rsmibin/1 over a persistent TCP connection. rsmibin frames
// are self-delimiting, so the same encoding runs over a raw TCP stream
// and sheds HTTP framing entirely.
//
// # Framing
//
// Both directions carry length-prefixed frames over one long-lived TCP
// connection. Integers are little-endian; varints are uvarints:
//
//	frame       uint32 payload length, payload
//	request     uvarint request id, rsmibin batch request frame
//	            (RB+version header, uvarint n, n × entry — the exact
//	            /v1/batch request encoding of bin.go; a single-query
//	            op is a batch of one)
//	response    uvarint request id, status byte
//	  status 0    rsmibin batch response frame (header, uvarint n,
//	              n × result [, trace] — the trace result rides along
//	              when an entry carried the rsmibin explain flag bit)
//	  status 1    uvarint code (HTTP status semantics: 400, 429, 503),
//	              uvarint msg length, msg bytes
//	push        request id 0, status 2, uvarint n, n × (uvarint sub id,
//	            kind byte (1 insert, 2 delete), flags byte (bit 0: one or
//	            more notifications were missed), x f64, y f64) — a
//	            server-initiated standing-query notification batch
//
// The request id tags each frame so clients may pipeline: many requests
// can be in flight on one connection and responses are matched by id, in
// whatever order the server finishes them. Ids need only be unique among
// a connection's in-flight requests — and never 0, which tags
// server-initiated push frames. The oplog feed (feed.go) sends the same
// frames without an id; only OpenFrame/CloseFrame and ReadFrame touch the
// length.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rsmi/internal/geom"
)

// Stream response status bytes.
const (
	statusOK    byte = 0
	statusError byte = 1
	// statusPush tags a server-initiated frame: a standing-query
	// notification batch, pushed without any request. Push frames always
	// carry request id PushID, which clients never assign, so a
	// pipelined client can route them before its pending-request lookup.
	statusPush byte = 2
)

// PushID is the reserved request id of server-initiated push frames;
// client-assigned ids start at 1.
const PushID = 0

// pushMissed is the push-entry flag bit marking that one or more earlier
// notifications for the subscription were lost (full outbox or client
// reconnect): the subscriber should re-run its query.
const pushMissed byte = 1

// The write kinds a push entry and a feed record carry: the values of
// shard.WriteKind.
const (
	kindInsert  byte = 1
	kindDelete  byte = 2
	kindRebuild byte = 3 // feed records only; carries no point
)

// ReadChunk is the largest frame ReadFrame allocates for on the length
// word alone; a reader's bufio.Reader is sized to it.
const ReadChunk = 64 << 10

// OpenFrame starts a frame at the end of b: it appends the length word,
// which CloseFrame fills in once the payload follows it.
func OpenFrame(b []byte) []byte { return append(b, 0, 0, 0, 0) }

// OpenStreamFrame starts a stream frame tagged with request id id: the
// length word, then the id.
func OpenStreamFrame(b []byte, id uint64) []byte { return appendUvarint(OpenFrame(b), id) }

// CloseFrame sets the length word of the frame opened at b[start:].
func CloseFrame(b []byte, start int) {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
}

// FrameBuffered reports whether br already holds a complete frame, so
// reading it cannot block.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	lb, _ := br.Peek(4)
	return uint32(n-4) >= binary.LittleEndian.Uint32(lb)
}

// ReadFrame reads one length-prefixed frame. io.EOF is returned untouched
// for a clean close before any length bytes. A frame that fits scratch is
// read into it (the payload then aliases scratch); one that fits
// ReadChunk gets its one exact allocation; a larger one is read in
// doubling steps, so the memory committed follows the bytes received and
// a 4-byte header cannot make either side allocate maxLen.
func ReadFrame(br *bufio.Reader, maxLen uint32, scratch []byte) ([]byte, error) {
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("rsmistream: truncated frame length: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n == 0 {
		return nil, errors.New("rsmistream: empty frame")
	}
	if n > maxLen {
		return nil, errors.New("rsmistream: frame exceeds size limit")
	}
	var buf []byte
	if n <= uint32(len(scratch)) {
		buf = scratch[:n]
	} else {
		buf = make([]byte, min(n, ReadChunk))
	}
	for read := 0; ; {
		if _, err := io.ReadFull(br, buf[read:]); err != nil {
			return nil, fmt.Errorf("rsmistream: truncated frame: %w", err)
		}
		if read = len(buf); read == int(n) {
			return buf, nil
		}
		grown := make([]byte, min(2*read, int(n)))
		copy(grown, buf)
		buf = grown
	}
}

// ReadStreamFrame reads one request or response frame through ReadFrame's
// scratch and splits off the request id.
func ReadStreamFrame(br *bufio.Reader, maxLen uint32, scratch []byte) (id uint64, payload []byte, err error) {
	buf, err := ReadFrame(br, maxLen, scratch)
	if err != nil {
		return 0, nil, err
	}
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, errors.New("rsmistream: bad request id")
	}
	return id, buf[w:], nil
}

// AppendStreamAnswers appends a status-0 response payload: the rsmibin
// batch response frame, with the EXPLAIN trace after the results when tj
// is set.
func AppendStreamAnswers(b []byte, answers []Result, tj *TraceJSON) []byte {
	return AppendAnswers(append(b, statusOK), answers, false, tj)
}

// AppendStreamError appends a status-1 response payload carrying an
// HTTP-semantics code and its message.
func AppendStreamError(b []byte, code int, msg string) []byte {
	return appendStr(appendUvarint(append(b, statusError), uint64(code)), msg)
}

// StatusError is an error answer: a non-2xx HTTP response or a status-1
// stream response, with its HTTP-semantics code and message. Callers
// distinguishing shed load check Code == http.StatusTooManyRequests.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: status %d: %s", e.Code, e.Msg)
}

// DecodeStreamResponse parses a response payload (after the request id)
// to ops: status 0 wraps an rsmibin batch response frame (with its
// optional trailing EXPLAIN trace), status 1 an error code and message,
// returned as a *StatusError.
func DecodeStreamResponse(payload []byte, ops []BatchOp) ([]Result, *TraceJSON, error) {
	if len(payload) == 0 {
		return nil, nil, errors.New("stream: empty response payload")
	}
	switch payload[0] {
	case statusOK:
		return DecodeResults(payload[1:], false, ops)
	case statusError:
		r := &binReader{data: payload[1:]}
		e := &StatusError{Code: int(r.uvarint()), Msg: r.str()}
		if r.err != nil {
			return nil, nil, fmt.Errorf("stream: bad error response: %w", r.err)
		}
		return nil, nil, e
	default:
		return nil, nil, fmt.Errorf("stream: unknown response status 0x%02x", payload[0])
	}
}

// AppendPush appends the head of a push frame's payload carrying n
// notifications; AppendPushEntry appends each.
func AppendPush(b []byte, n int) []byte {
	return appendUvarint(append(b, statusPush), uint64(n))
}

// AppendPushEntry appends one notification: subscription id, write kind
// (a shard.WriteKind value), the missed flag and the point.
func AppendPushEntry(b []byte, subID uint64, kind byte, missed bool, p geom.Point) []byte {
	b = appendUvarint(b, subID)
	var flags byte
	if missed {
		flags |= pushMissed
	}
	b = append(b, kind, flags)
	b = appendF64(b, p.X)
	return appendF64(b, p.Y)
}

// Notification is one standing-query notification delivered to a
// subscriber.
type Notification struct {
	// SubID is the caller-chosen subscription id the event matched.
	SubID uint64
	// Kind is OpInsert or OpDelete for a matched write — for kNN
	// subscriptions, a point entering or leaving the current k-nearest
	// set — or "" on the synthetic marker the client emits after a
	// transport reconnect.
	Kind string
	// Point is the matched point.
	Point geom.Point
	// Missed reports that one or more notifications since the last
	// delivered one were lost: a full server outbox, a full client
	// buffer, or a reconnect gap. Re-run the query to resynchronise.
	Missed bool
}

// DecodePush parses a push frame payload (status byte included).
func DecodePush(payload []byte) ([]Notification, error) {
	if len(payload) == 0 || payload[0] != statusPush {
		return nil, errors.New("stream: bad push frame")
	}
	r := &binReader{data: payload[1:]}
	n := r.count(19) // id, kind, flags, x, y
	out := make([]Notification, 0, n)
	for i := uint64(0); i < n; i++ {
		id := r.uvarint()
		kind := r.byte()
		flags := r.byte()
		x, y := r.f64(), r.f64()
		if r.err != nil {
			break
		}
		sn := Notification{SubID: id, Point: geom.Pt(x, y), Missed: flags&pushMissed != 0}
		switch kind {
		case kindInsert:
			sn.Kind = OpInsert
		case kindDelete:
			sn.Kind = OpDelete
		default:
			return nil, fmt.Errorf("stream: unknown push kind 0x%02x", kind)
		}
		out = append(out, sn)
	}
	if r.err != nil {
		return nil, fmt.Errorf("stream: bad push frame: %w", r.err)
	}
	if len(r.data) != 0 {
		return nil, errors.New("stream: trailing bytes in push frame")
	}
	return out, nil
}
