package server

// Hedged reads over a replica set — the tail-tolerance mechanism of
// Dean & Barroso's "The Tail at Scale". A read goes to one target; if
// no answer arrives within the hedge delay (pick ~p95 of the read
// latency distribution), the same read is fired at a second target and
// the first answer wins. The loser is cancelled through the context
// plumbing the whole stack threads (client request context → server
// r.Context() → engine shard visits), so a hedge costs at most one
// duplicated read that stops early, in exchange for cutting the p99:
// slow-tail causes local to one replica (a rebuild of its shards, a
// GC pause, queueing) no longer decide the client-observed tail.
//
// A target that fails outright (transport error) triggers the hedge
// immediately — failover is just a hedge with no delay — which is what
// keeps a load test green while a replica is killed mid-run.
//
// Writes are not hedged: a duplicated insert is harmless (last write
// wins on identical points) but a duplicated delete could answer false
// on the retry. Writes instead fail over to the next target on
// transport errors only — every server forwards writes to the primary,
// so any target can accept them; a write whose connection died
// mid-flight may be retried against a server that already applied it
// (at-least-once, the standard trade).

import (
	"context"
	"sync/atomic"
	"time"

	"rsmi/internal/wire"
)

// DefaultHedgeDelay is how long the first target has to answer before
// the hedge fires at a second: a conservative stand-in for "about p95 of
// reads" on loopback (much lower duplicates most reads, much higher
// stops protecting the tail). Nothing sets another delay; the sweep that
// once chose it is gone (EXPERIMENTS.md "Retired serving options").
const DefaultHedgeDelay = 2 * time.Millisecond

// HedgedClient fans reads over a set of equivalent serving targets
// (primary and replicas) with hedging; writes fail over. It has the same
// data-plane verbs as Client — both embed them over one round-trip
// function, here the hedged one — so callers (rsmi-loadgen) switch
// between the two behind one interface. Safe for concurrent use.
type HedgedClient struct {
	dataPlane
	targets []*Client
	delay   time.Duration // DefaultHedgeDelay; tests set it before use

	rr     atomic.Uint64
	hedges atomic.Int64
	wins   atomic.Int64
}

// NewHedgedClient builds a hedged client over targets (at least one;
// with exactly one, hedging degenerates to plain calls). The targets
// are owned by the hedged client: Close closes them.
func NewHedgedClient(targets []*Client) *HedgedClient {
	if len(targets) == 0 {
		panic("server: NewHedgedClient needs at least one target")
	}
	h := &HedgedClient{targets: targets, delay: DefaultHedgeDelay}
	h.roundTrip = h.hedgedRoundTrip
	return h
}

// Close closes every target client.
func (h *HedgedClient) Close() {
	for _, c := range h.targets {
		c.Close()
	}
}

// Hedges reports how many hedge requests have been fired (by delay or
// by first-leg failure).
func (h *HedgedClient) Hedges() int64 { return h.hedges.Load() }

// HedgeWins reports how many operations the hedge leg answered first.
func (h *HedgedClient) HedgeWins() int64 { return h.wins.Load() }

// pair picks the next round-robin (first, hedge) target pair; hedge is
// nil with a single target.
func (h *HedgedClient) pair() (*Client, *Client) {
	n := len(h.targets)
	if n == 1 {
		return h.targets[0], nil
	}
	i := int(h.rr.Add(1))
	return h.targets[i%n], h.targets[(i+1)%n]
}

// legFunc runs one leg of a request against one target.
type legFunc func(ctx context.Context, c *Client) (legResult, error)

// legResult is what one leg brought back: each leg carries its own
// EXPLAIN trace by value, so only the winner's reaches the caller.
type legResult struct {
	rs []wire.Result
	tj *wire.TraceJSON
}

// hedgeResult is one leg's answer.
type hedgeResult struct {
	v     legResult
	err   error
	hedge bool
}

// hedged runs do against the first target, fires it at the hedge target
// after the delay (or immediately when the first leg errors), returns
// the first success, and cancels the loser via context.
func (h *HedgedClient) hedged(ctx context.Context, do legFunc) (legResult, error) {
	first, hedge := h.pair()
	if hedge == nil {
		return do(ctx, first)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's leg observes this as its cancellation
	ch := make(chan hedgeResult, 2)
	launch := func(c *Client, isHedge bool) {
		v, err := do(hctx, c)
		ch <- hedgeResult{v: v, err: err, hedge: isHedge}
	}
	go launch(first, false)
	timer := time.NewTimer(h.delay)
	defer timer.Stop()
	launched, failures := 1, 0
	var firstErr error
	fire := func() {
		h.hedges.Add(1)
		launched = 2
		go launch(hedge, true)
	}
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.hedge {
					h.wins.Add(1)
				}
				return r.v, nil
			}
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			if launched == 1 {
				// First leg failed before the delay: hedge immediately —
				// failover.
				fire()
				continue
			}
			if failures == launched {
				// Every launched leg failed.
				return legResult{}, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				fire()
			}
		case <-ctx.Done():
			return legResult{}, ctx.Err()
		}
	}
}

// failover runs a write against the first target, retrying once against
// the next on transport errors only (a *wire.StatusError is the server's
// answer — retrying it elsewhere would just repeat it, or worse,
// double-apply).
func (h *HedgedClient) failover(ctx context.Context, do legFunc) (legResult, error) {
	first, alt := h.pair()
	v, err := do(ctx, first)
	if err == nil || alt == nil || isStatusError(err) || ctx.Err() != nil {
		return v, err
	}
	return do(ctx, alt)
}

// hedgedRoundTrip is the HedgedClient's roundTripFunc: a request whose
// ops are all reads is hedged, one carrying a write fails over (a batch
// with writes must not run twice concurrently).
func (h *HedgedClient) hedgedRoundTrip(ctx context.Context, rt *wire.Spec, ops []wire.BatchOp, explain bool) ([]wire.Result, *wire.TraceJSON, error) {
	run := h.hedged
	for _, op := range ops {
		if op.Op == wire.OpInsert || op.Op == wire.OpDelete {
			run = h.failover
			break
		}
	}
	r, err := run(ctx, func(ctx context.Context, c *Client) (legResult, error) {
		rs, tj, err := c.roundTrip(ctx, rt, ops, explain)
		return legResult{rs: rs, tj: tj}, err
	})
	return r.rs, r.tj, err
}
