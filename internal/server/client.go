package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rsmi/internal/geom"
)

// Proto selects the wire protocol a Client speaks for data-plane
// operations (queries, writes, batches). Control-plane calls (stats,
// rebuild, health) are always JSON.
type Proto string

const (
	// ProtoJSON is the debuggable default: JSON bodies both ways.
	ProtoJSON Proto = "json"
	// ProtoBinary speaks rsmibin/1 both ways (see binproto.go).
	ProtoBinary Proto = "binary"
)

// ParseProto parses a -proto flag value.
func ParseProto(s string) (Proto, error) {
	switch Proto(s) {
	case ProtoJSON, ProtoBinary:
		return Proto(s), nil
	}
	return "", fmt.Errorf("unknown protocol %q (want json|binary)", s)
}

// Transport selects how a Client reaches the server for data-plane
// operations.
type Transport string

const (
	// TransportHTTP sends one HTTP request per operation or batch (JSON
	// or rsmibin body per Proto). The default.
	TransportHTTP Transport = "http"
	// TransportTCP speaks rsmibin/1 over the persistent pipelined
	// rsmistream connection pool (stream.go); the addr is the server's
	// stream listener. The stream transport is binary-only, and the
	// HTTP-only control plane (Stats, Rebuild, Health) is unavailable.
	TransportTCP Transport = "tcp"
)

// ParseTransport parses a -transport flag value.
func ParseTransport(s string) (Transport, error) {
	switch Transport(s) {
	case TransportHTTP, TransportTCP:
		return Transport(s), nil
	}
	return "", fmt.Errorf("unknown transport %q (want http|tcp)", s)
}

// clientOptions is what the With* options set.
type clientOptions struct {
	proto       Proto
	transport   Transport
	timeout     time.Duration
	streamConns int
}

// DefaultTimeout is the per-request client timeout when WithTimeout is
// not given.
const DefaultTimeout = 30 * time.Second

// roundTripFunc carries one data-plane request to a server and back:
// ops go out as the request of route rt (one op in the per-op wire shape,
// or /v1/batch's list), the raw results come back in request order —
// exactly one for a single request — with the EXPLAIN trace when
// explain asked for one.
type roundTripFunc func(ctx context.Context, rt *opSpec, ops []BatchOp, explain bool) ([]binResult, *TraceJSON, error)

// dataPlane is the data-plane verbs, written once over a roundTripFunc.
// Client embeds it over its codec and transport, HedgedClient over a
// hedged fan-out to several Clients.
type dataPlane struct {
	roundTrip roundTripFunc
}

// Client is a Go client for the serving API, used by cmd/rsmi-loadgen,
// the bench harness, and the examples. It is safe for concurrent use; one
// Client pools keep-alive HTTP connections — or persistent stream
// connections — across all its callers.
type Client struct {
	dataPlane
	base   string
	hc     *http.Client
	proto  Proto
	stream *streamClient

	// subMu guards the lazily-created standing-query state (subclient.go).
	subMu sync.Mutex
	subc  *subClient
}

// Option configures a Client at construction; pass any combination to
// NewClient. The zero configuration — no options — is a JSON client
// over HTTP with the default timeout.
type Option func(*clientOptions)

// WithProto selects the HTTP data-plane encoding (ProtoJSON or
// ProtoBinary). Ignored by the TCP transport, which is always rsmibin.
func WithProto(p Proto) Option { return func(o *clientOptions) { o.proto = p } }

// WithTransport selects HTTP or the persistent TCP stream; with
// TransportTCP the address handed to NewClient is the server's
// rsmistream listener.
func WithTransport(t Transport) Option { return func(o *clientOptions) { o.transport = t } }

// WithTimeout bounds one request round-trip: the HTTP client timeout,
// and the stream transport's dial/write deadlines and per-request
// response wait (default DefaultTimeout). Large batches against a loaded
// 1M-point server or a slow link may need more.
func WithTimeout(d time.Duration) Option { return func(o *clientOptions) { o.timeout = d } }

// WithStreamConns sizes the TCP transport's connection pool (default 4).
// More connections raise pipelining fan-out; the server batches
// back-to-back frames from all of them.
func WithStreamConns(n int) Option { return func(o *clientOptions) { o.streamConns = n } }

// NewClient returns a client for the server at addr ("host:port" or a
// full http:// URL), configured by the options:
//
//	cl := server.NewClient(addr)                                  // JSON over HTTP
//	cl := server.NewClient(addr, server.WithProto(server.ProtoBinary))
//	cl := server.NewClient(addr, server.WithTransport(server.TransportTCP))
//
// With TransportTCP, addr is the server's rsmistream listener and
// data-plane calls ride the persistent connection pool. The codec and
// transport are chosen here, once: anything other than ProtoBinary
// normalises to ProtoJSON, so Proto() always reports what the client
// actually speaks.
func NewClient(addr string, opts ...Option) *Client {
	var o clientOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.timeout <= 0 {
		o.timeout = DefaultTimeout
	}
	if o.transport == TransportTCP {
		if o.streamConns <= 0 {
			o.streamConns = 4
		}
		c := &Client{proto: ProtoBinary, stream: newStreamClient(addr, o.streamConns, o.timeout)}
		c.roundTrip = c.stream.roundTrip
		return c
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	c := &Client{
		base:  strings.TrimRight(addr, "/"),
		proto: ProtoJSON,
		hc: &http.Client{
			Timeout: o.timeout,
			Transport: &http.Transport{
				// Closed-loop load generators run hundreds of concurrent
				// clients against one host; the default per-host idle pool
				// of 2 would thrash connections.
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 512,
			},
		},
	}
	c.roundTrip = c.roundTripJSON
	if o.proto == ProtoBinary {
		c.proto, c.roundTrip = ProtoBinary, c.roundTripBinary
	}
	return c
}

// Proto reports the client's data-plane wire protocol.
func (c *Client) Proto() Proto { return c.proto }

// Transport reports the client's data-plane transport.
func (c *Client) Transport() Transport {
	if c.stream != nil {
		return TransportTCP
	}
	return TransportHTTP
}

// Close releases the client's pooled connections. A closed stream client
// fails subsequent calls; a closed HTTP client only drops idle
// connections.
func (c *Client) Close() {
	c.subMu.Lock()
	sc := c.subc
	c.subc = nil
	c.subMu.Unlock()
	if sc != nil {
		sc.close()
	}
	if c.stream != nil {
		c.stream.close()
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// errNoHTTP reports a control-plane call on a TCP-only client.
var errNoHTTP = errors.New("client: control-plane calls need the HTTP transport")

// StatusError reports a non-2xx response. Callers distinguishing shed
// load check Code == http.StatusTooManyRequests.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: status %d: %s", e.Code, e.Msg)
}

// post sends one request body and hands the 2xx answer to decode. ctx
// bounds the round-trip in addition to the client timeout — hedged
// reads cancel their loser through it.
func (c *Client) post(ctx context.Context, path, contentType string, body []byte, decode func(io.Reader) error) error {
	if c.hc == nil {
		return errNoHTTP
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	if contentType == ContentTypeBinary {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return handleResponse(resp, decode)
}

func (c *Client) get(path string, decode func(io.Reader) error) error {
	if c.hc == nil {
		return errNoHTTP
	}
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return handleResponse(resp, decode)
}

// jsonInto decodes a JSON answer into out.
func jsonInto(out interface{}) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// handleResponse hands a 2xx body to decode (when non-nil), turns any
// other status — always a JSON ErrorResponse, in either protocol — into
// a *StatusError, and always drains and closes the body so the
// keep-alive connection is reusable.
func handleResponse(resp *http.Response, decode func(io.Reader) error) error {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if decode == nil {
		return nil
	}
	return decode(resp.Body)
}

// bodyInto reads a data-plane answer whole into a pooled buffer and
// hands the bytes to decode, which must keep no reference into them: the
// buffer returns to the pool when decode does.
func bodyInto(decode func(body []byte) error) func(io.Reader) error {
	return func(r io.Reader) error {
		bp, body, err := readPooled(r)
		if err == nil {
			err = decode(body)
		} else {
			err = fmt.Errorf("client: read response: %w", err)
		}
		putPooled(bp, body)
		return err
	}
}

// roundTripBinary is the rsmibin-over-HTTP roundTripFunc.
func (c *Client) roundTripBinary(ctx context.Context, rt *opSpec, ops []BatchOp, explain bool) (rs []binResult, tj *TraceJSON, err error) {
	single := rt.req != reqBatch
	frame, err := encodeBinaryOps(ops, single, explain)
	if err != nil {
		return nil, nil, err
	}
	err = c.post(ctx, rt.path, ContentTypeBinary, frame, bodyInto(func(body []byte) (err error) {
		rs, tj, err = decodeBinaryResults(body, single)
		return err
	}))
	return rs, tj, err
}

// roundTripJSON is the JSON-over-HTTP roundTripFunc: the request is the
// route's historical document, with ?explain=1 asking for the trace. Its
// buffer is the request's own, not a pooled one: the transport may still
// be reading a body after the response has arrived.
func (c *Client) roundTripJSON(ctx context.Context, rt *opSpec, ops []BatchOp, explain bool) (rs []binResult, tj *TraceJSON, err error) {
	req, err := appendRequestJSON(make([]byte, 0, 64+160*len(ops)), rt, ops)
	if err != nil {
		return nil, nil, fmt.Errorf("client: marshal: %w", err)
	}
	path := rt.path
	if explain {
		path += "?explain=1"
	}
	err = c.post(ctx, path, "application/json", req, bodyInto(func(body []byte) (err error) {
		rs, tj, err = decodeJSONResults(body, rt.req != reqBatch, ops)
		return err
	}))
	return rs, tj, err
}

// errBinResultKind reports a response whose result kind does not match
// the op that was sent.
var errBinResultKind = errors.New("client: result kind does not match op")

// QueryOpt customises one query call; every data-plane verb accepts a
// variadic tail of them.
type QueryOpt func(*queryOpts)

type queryOpts struct {
	// explain, when non-nil, is where the inline EXPLAIN trace lands.
	explain **TraceJSON
}

// WithExplain requests an inline EXPLAIN trace and stores it into *dst
// when the call returns successfully: the stage breakdown, shards
// visited, block accesses, and — on planned queries — the chosen
// backend with estimated vs actual cost. Works on every proto/transport
// combination (?explain=1 for JSON, the rsmibin explain flag bit for
// binary HTTP and the stream):
//
//	var tj *server.TraceJSON
//	pts, err := cl.WindowQuery(ctx, q, server.WithExplain(&tj))
func WithExplain(dst **TraceJSON) QueryOpt {
	return func(o *queryOpts) { o.explain = dst }
}

// checkResults holds a decoded answer to its request, whichever codec
// read it: one result per op, each of its op's kind.
func checkResults(rs []binResult, ops []BatchOp) error {
	if len(rs) != len(ops) {
		return fmt.Errorf("client: %d results for %d ops", len(rs), len(ops))
	}
	for i, r := range rs {
		if (r.tag == binResPoints) != pointsResult(ops[i].Op) {
			return errBinResultKind
		}
	}
	return nil
}

// do runs ops through the round trip to route rt, checks the answer
// against them, and delivers the trace to the call's WithExplain
// destination.
func (d *dataPlane) do(ctx context.Context, rt *opSpec, ops []BatchOp, opts []QueryOpt) ([]binResult, error) {
	var o queryOpts
	for _, fn := range opts {
		fn(&o)
	}
	rs, tj, err := d.roundTrip(ctx, rt, ops, o.explain != nil)
	if err != nil {
		return nil, err
	}
	if err := checkResults(rs, ops); err != nil {
		return nil, err
	}
	if o.explain != nil {
		*o.explain = tj
	}
	return rs, nil
}

// one runs a single op on its per-op endpoint.
func (d *dataPlane) one(ctx context.Context, op BatchOp, opts []QueryOpt) (binResult, error) {
	rs, err := d.do(ctx, &opTable[opRow(op.Op)], []BatchOp{op}, opts)
	if err != nil {
		return binResult{}, err
	}
	return rs[0], nil
}

// PointQuery reports whether a point with exactly p's coordinates is
// indexed.
func (d *dataPlane) PointQuery(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	r, err := d.one(ctx, BatchOp{Op: OpPoint, X: p.X, Y: p.Y}, opts)
	return r.flag, err
}

// WindowQuery returns the indexed points inside the window.
func (d *dataPlane) WindowQuery(ctx context.Context, q geom.Rect, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, BatchOp{Op: OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}, opts)
	return r.pts, err
}

// KNN returns up to k nearest neighbours of q, closest first.
func (d *dataPlane) KNN(ctx context.Context, q geom.Point, k int, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, BatchOp{Op: OpKNN, X: q.X, Y: q.Y, K: k}, opts)
	return r.pts, err
}

// SQL executes one statement in the spatial SQL dialect (POST /v1/sql;
// internal/sqlfe documents the grammar) and returns the result rows.
// With WithExplain the trace carries the planner's decision: chosen
// backend, estimated vs actual cost.
func (d *dataPlane) SQL(ctx context.Context, query string, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, BatchOp{Op: OpSQL, SQL: query}, opts)
	return r.pts, err
}

// Insert adds a point.
func (d *dataPlane) Insert(ctx context.Context, p geom.Point, opts ...QueryOpt) error {
	_, err := d.one(ctx, BatchOp{Op: OpInsert, X: p.X, Y: p.Y}, opts)
	return err
}

// Delete removes the point with exactly p's coordinates, reporting
// whether it existed.
func (d *dataPlane) Delete(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	r, err := d.one(ctx, BatchOp{Op: OpDelete, X: p.X, Y: p.Y}, opts)
	return r.flag, err
}

// Batch executes a heterogeneous operation list in one round-trip and
// returns the per-op results in request order, in the JSON result shape
// whatever the protocol. A WithExplain trace covers the whole batch.
func (d *dataPlane) Batch(ctx context.Context, ops []BatchOp, opts ...QueryOpt) ([]BatchResult, error) {
	rs, err := d.do(ctx, &opTable[batchRow], ops, opts)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = batchResultOf(ops[i].Op, r.flag, r.pts)
	}
	return out, nil
}

// Rebuild triggers a rolling rebuild; it returns a *StatusError with code
// 409 if one is already running.
func (c *Client) Rebuild(ctx context.Context) error {
	return c.post(ctx, "/v1/rebuild", "application/json", []byte("{}"), nil)
}

// Stats fetches the serving counters.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.get("/v1/stats", jsonInto(&resp))
	return resp, err
}

// Health reports whether the server answers its health check.
func (c *Client) Health() error {
	return c.get("/healthz", nil)
}
