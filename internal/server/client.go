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
	"rsmi/internal/wire"
)

// Proto selects the wire protocol a Client speaks for data-plane
// operations (queries, writes, batches). Control-plane calls (stats,
// rebuild, health) are always JSON.
type Proto string

const (
	// ProtoJSON is the debuggable default: JSON bodies both ways.
	ProtoJSON Proto = "json"
	// ProtoBinary speaks rsmibin/1 both ways (see internal/wire).
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
type roundTripFunc func(ctx context.Context, rt *wire.Spec, ops []wire.BatchOp, explain bool) ([]wire.Result, *wire.TraceJSON, error)

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

	// subMu guards the lazily-created standing-query state (subclient.go),
	// whose notification buffer holds subNotes (subNotesBuf; tests set it
	// before the first subscription).
	subMu    sync.Mutex
	subc     *subClient
	subNotes int
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
		c := &Client{proto: ProtoBinary, stream: newStreamClient(addr, o.streamConns, o.timeout), subNotes: subNotesBuf}
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
	c.roundTrip = c.roundTripHTTP
	if o.proto == ProtoBinary {
		c.proto = ProtoBinary
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
	if contentType == wire.ContentTypeBinary {
		req.Header.Set("Accept", wire.ContentTypeBinary)
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
// a *wire.StatusError, and always drains and closes the body so the
// keep-alive connection is reusable.
func handleResponse(resp *http.Response, decode func(io.Reader) error) error {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e wire.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &wire.StatusError{Code: resp.StatusCode, Msg: e.Error}
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

// roundTripHTTP is the HTTP roundTripFunc, in the client's codec both
// ways: rsmibin, or the route's historical JSON document with
// ?explain=1 asking for the trace. The request buffer is the request's
// own, not a pooled one: the transport may still be reading a body after
// the response has arrived.
func (c *Client) roundTripHTTP(ctx context.Context, rt *wire.Spec, ops []wire.BatchOp, explain bool) (rs []wire.Result, tj *wire.TraceJSON, err error) {
	path, contentType, decode := rt.Path, "application/json", wire.DecodeJSONResults
	var req []byte
	if c.proto == ProtoBinary {
		contentType, decode = wire.ContentTypeBinary, wire.DecodeResults
		req, err = wire.AppendOps(make([]byte, 0, 16+24*len(ops)), ops, rt.Single(), explain)
	} else if req, err = wire.AppendRequestJSON(make([]byte, 0, 64+160*len(ops)), rt, ops); err != nil {
		err = fmt.Errorf("client: marshal: %w", err)
	} else if explain {
		path += "?explain=1"
	}
	if err != nil {
		return nil, nil, err
	}
	err = c.post(ctx, path, contentType, req, bodyInto(func(body []byte) (err error) {
		rs, tj, err = decode(body, rt.Single(), ops)
		return err
	}))
	return rs, tj, err
}

// QueryOpt customises one query call; every data-plane verb accepts a
// variadic tail of them.
type QueryOpt func(*queryOpts)

type queryOpts struct {
	// explain, when non-nil, is where the inline EXPLAIN trace lands.
	explain **wire.TraceJSON
}

// WithExplain requests an inline EXPLAIN trace and stores it into *dst
// when the call returns successfully: the stage breakdown, shards
// visited, block accesses, and — on planned queries — the chosen
// backend with estimated vs actual cost. Works on every proto/transport
// combination (?explain=1 for JSON, the rsmibin explain flag bit for
// binary HTTP and the stream):
//
//	var tj *wire.TraceJSON
//	pts, err := cl.WindowQuery(ctx, q, server.WithExplain(&tj))
func WithExplain(dst **wire.TraceJSON) QueryOpt {
	return func(o *queryOpts) { o.explain = dst }
}

// do runs ops through the round trip to route rt — whose decoder holds
// the answer to one result per op, each of its op's kind — and delivers
// the trace to the call's WithExplain destination.
func (d *dataPlane) do(ctx context.Context, rt *wire.Spec, ops []wire.BatchOp, opts []QueryOpt) ([]wire.Result, error) {
	var o queryOpts
	for _, fn := range opts {
		fn(&o)
	}
	rs, tj, err := d.roundTrip(ctx, rt, ops, o.explain != nil)
	if err != nil {
		return nil, err
	}
	if o.explain != nil {
		*o.explain = tj
	}
	return rs, nil
}

// one runs a single op on its per-op endpoint.
func (d *dataPlane) one(ctx context.Context, op wire.BatchOp, opts []QueryOpt) (wire.Result, error) {
	rs, err := d.do(ctx, wire.Lookup(wire.Row(op.Op)), []wire.BatchOp{op}, opts)
	if err != nil {
		return wire.Result{}, err
	}
	return rs[0], nil
}

// PointQuery reports whether a point with exactly p's coordinates is
// indexed.
func (d *dataPlane) PointQuery(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	r, err := d.one(ctx, wire.BatchOp{Op: wire.OpPoint, X: p.X, Y: p.Y}, opts)
	return r.Flag, err
}

// WindowQuery returns the indexed points inside the window.
func (d *dataPlane) WindowQuery(ctx context.Context, q geom.Rect, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, wire.BatchOp{Op: wire.OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}, opts)
	return r.Pts, err
}

// KNN returns up to k nearest neighbours of q, closest first.
func (d *dataPlane) KNN(ctx context.Context, q geom.Point, k int, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, wire.BatchOp{Op: wire.OpKNN, X: q.X, Y: q.Y, K: k}, opts)
	return r.Pts, err
}

// SQL executes one statement in the spatial SQL dialect (POST /v1/sql;
// internal/sqlfe documents the grammar) and returns the result rows.
// With WithExplain the trace carries the planner's decision: chosen
// backend, estimated vs actual cost.
func (d *dataPlane) SQL(ctx context.Context, query string, opts ...QueryOpt) ([]geom.Point, error) {
	r, err := d.one(ctx, wire.BatchOp{Op: wire.OpSQL, SQL: query}, opts)
	return r.Pts, err
}

// Insert adds a point.
func (d *dataPlane) Insert(ctx context.Context, p geom.Point, opts ...QueryOpt) error {
	_, err := d.one(ctx, wire.BatchOp{Op: wire.OpInsert, X: p.X, Y: p.Y}, opts)
	return err
}

// Delete removes the point with exactly p's coordinates, reporting
// whether it existed.
func (d *dataPlane) Delete(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	r, err := d.one(ctx, wire.BatchOp{Op: wire.OpDelete, X: p.X, Y: p.Y}, opts)
	return r.Flag, err
}

// Batch executes a heterogeneous operation list in one round-trip and
// returns the per-op results in request order, in the JSON result shape
// whatever the protocol. A WithExplain trace covers the whole batch.
func (d *dataPlane) Batch(ctx context.Context, ops []wire.BatchOp, opts ...QueryOpt) ([]wire.BatchResult, error) {
	rs, err := d.do(ctx, wire.Lookup(wire.BatchRow), ops, opts)
	if err != nil {
		return nil, err
	}
	out := make([]wire.BatchResult, len(rs))
	for i, r := range rs {
		out[i] = r.BatchResult()
	}
	return out, nil
}

// Rebuild triggers a rolling rebuild; it returns a *wire.StatusError with code
// 409 if one is already running.
func (c *Client) Rebuild(ctx context.Context) error {
	return c.post(ctx, "/v1/rebuild", "application/json", []byte("{}"), nil)
}

// Stats fetches the serving counters.
func (c *Client) Stats() (wire.StatsResponse, error) {
	var resp wire.StatsResponse
	err := c.get("/v1/stats", jsonInto(&resp))
	return resp, err
}
