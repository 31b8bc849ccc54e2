package server

import (
	"encoding/binary"
	"math"

	"rsmi/internal/wire"
)

// Hand-spelt wire bytes for the tests: the pieces of rsmibin/1 and
// rsmistream (internal/wire) that malformed frames and mid-stream byte
// checks are built from.

// The rsmistream status bytes and the rsmibin result tags.
const (
	statusOK     byte = 0
	statusError  byte = 1
	statusPush   byte = 2
	binResBool   byte = 1
	binResPoints byte = 2
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBinHeader appends the rsmibin frame header: magic and version.
func appendBinHeader(b []byte) []byte { return append(b, 'R', 'B', wire.BinVersion) }

// appendOp appends op's request entry, as a counted list carries it.
func appendOp(b []byte, op BatchOp) ([]byte, error) {
	entry, err := wire.AppendOps(nil, []BatchOp{op}, true, false)
	if err != nil {
		return b, err
	}
	return append(b, entry[len(appendBinHeader(nil)):]...), nil
}

// batchRoute is /v1/batch's row of the op table.
var batchRoute = wire.Lookup(wire.BatchRow)

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

// answeredOps lists, for a status-0 stream response, an op of each
// result's kind — a point probe for a flag, a window for points — read off
// the result tags, so an answer decodes without its request at hand. It
// stops at the first byte that is not a well-formed result.
func answeredOps(payload []byte) []BatchOp {
	if len(payload) < 4 || payload[0] != statusOK {
		return nil
	}
	r := payload[4:]
	n, w := binary.Uvarint(r)
	if w <= 0 {
		return nil
	}
	r = r[w:]
	var ops []BatchOp
	for i := uint64(0); i < n && len(r) >= 2; i++ {
		switch r[0] {
		case binResBool:
			ops, r = append(ops, BatchOp{Op: OpPoint}), r[2:]
		case binResPoints:
			c, w := binary.Uvarint(r[1:])
			if w <= 0 || c > uint64(len(r)-1-w)/16 {
				return ops
			}
			ops, r = append(ops, BatchOp{Op: OpWindow}), r[1+w+16*int(c):]
		default:
			return ops
		}
	}
	return ops
}
