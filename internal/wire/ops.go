package wire

// The op table. Every per-op fact of the wire layer — name, rsmibin op
// byte, HTTP path, request fields, answer kind, histogram row — is one row
// of table, so adding an op is one table row plus the server's execution
// case for it. Other packages read its rows through Lookup and Row.

// Shape names the fields an op's request carries: the keys of its
// historical JSON document (jsonRequestKeys), which the rsmibin entry
// codec walks too, in the same order.
type Shape uint8

const (
	ReqPoint Shape = iota // PointJSON
	ReqRect               // RectJSON
	ReqKNN                // KNNJSON
	ReqSQL                // {"query": …}
	reqBatch              // BatchRequest
	ReqSubID              // sub_id alone; rsmibin only
)

// Spec is one row of the op table.
type Spec struct {
	Op   string // BatchOp.Op, and the trace, /v1/stats and /metrics label
	Path string // the HTTP endpoint; "" for the stream-only sub and unsub
	Req  Shape  // the request's fields
	Flag string // a bool answer's JSON member; "" for a points answer
}

// Single reports whether the route carries one op in the per-op wire
// shape rather than /v1/batch's list.
func (s *Spec) Single() bool { return s.Req != reqBatch }

// table holds each op at the index of its rsmibin op byte, which is also
// its latency histogram row. Row 0, a byte no entry carries, is
// /v1/batch. The server registers a handler per routed row and the client
// verbs find their endpoint here.
var table = [...]Spec{
	BatchRow:    {"batch", "/v1/batch", reqBatch, ""},
	binOpPoint:  {OpPoint, "/v1/point", ReqPoint, "found"},
	binOpWindow: {OpWindow, "/v1/window", ReqRect, ""},
	binOpKNN:    {OpKNN, "/v1/knn", ReqKNN, ""},
	binOpInsert: {OpInsert, "/v1/insert", ReqPoint, "ok"},
	binOpDelete: {OpDelete, "/v1/delete", ReqPoint, "deleted"},
	binOpSQL:    {OpSQL, "/v1/sql", ReqSQL, ""},
	// A sub entry follows its id with a kind byte and the fields of the
	// op of that kind (appendOp, binReader.entry).
	binOpSub:   {OpSub, "", ReqSubID, "ok"},
	binOpUnsub: {OpUnsub, "", ReqSubID, "ok"},
}

// BatchRow is /v1/batch's row of the table.
const BatchRow = 0

// NumRoutes counts the rows served over HTTP, which are also the rows
// with a latency histogram: every row before sub's.
const NumRoutes = binOpSub

// Lookup returns table row row: an rsmibin op byte, or BatchRow.
func Lookup(row byte) *Spec { return &table[row] }

// Row returns the table row — the rsmibin op byte — of the op named
// name, 0 when no op has that name.
func Row(name string) byte {
	for i := 1; i < len(table); i++ {
		if table[i].Op == name {
			return byte(i)
		}
	}
	return 0
}

// pointsResult reports whether op answers with points (window, knn, sql)
// rather than a bool.
func pointsResult(op string) bool {
	row := Row(op)
	return row != 0 && table[row].Flag == ""
}
