package server

// Primary side of the replica-set serving tier. A primary wraps its
// sharded engine in a Replicator, which taps every applied write
// through the shard write hook into the sequenced oplog (oplog.go). A
// replica's whole link rides the existing rsmistream TCP listener: its
// first frame is a replication handshake (distinguishable from every
// rsmibin request; internal/wire's feed.go holds the bytes), after which
// the connection is dedicated to pushed feed frames — snapshot chunks,
// ops batches and heartbeats. A position the oplog cannot serve (first
// contact, another epoch, or a sequence past retention) is answered with
// the stamped snapshot, and the feed continues from the sequence it
// reflects: bootstrap and resync are one path.
//
// # Snapshot consistency
//
// The snapshot must reflect *exactly* the writes with seq <= its
// stamped sequence — otherwise a replica replaying from seq+1 would
// double-apply or miss a write. Per shard that atomicity is free (the
// hook appends under the shard write lock WriteTo reads under), but a
// snapshot spans shards: without coordination, shard A could be
// serialised before a write that the stamped sequence includes while
// shard B is serialised after one it excludes. The write gate closes
// this: every insert/delete takes the gate shared (gatedEngine), the
// snapshot takes it exclusively just long enough to record the sequence
// and serialise into memory — writes are paused for one in-memory
// WriteTo (~0.25 s at 1M points), never for the network transfer.
// Reads are unaffected. Rebuild is deliberately not gated: a rebuild
// observed only partially by a snapshot is repaired when the replica
// replays the rebuild record.

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
	"rsmi/internal/wire"
)

const (
	// replBatchMax bounds records per pushed ops frame.
	replBatchMax = 4096
	// replHeartbeatEvery is the idle-feed heartbeat period.
	replHeartbeatEvery = 2 * time.Second
	// replSnapshotChunk bounds the snapshot bytes one feed frame carries,
	// so each frame arrives well inside the replica's read deadline
	// (3 heartbeats) even for an index of hundreds of megabytes.
	replSnapshotChunk = 1 << 20
)

// Replicator makes a sharded engine a replication primary. Create with
// NewReplicator, serve Engine() (the write-gated view), and hand the
// Replicator to Config.Replicator so the server's stream listener serves
// replicas.
type Replicator struct {
	idx  *rsmi.Sharded
	log  *opLog
	gate sync.RWMutex
	eng  Engine

	followers atomic.Int64
}

// NewReplicator wraps idx for replication, retaining the last opLogCap
// oplog records. It registers the oplog as one of idx's write hooks
// (other consumers — the subscription matcher — may fan in beside it); a
// sharded engine has at most one Replicator.
func NewReplicator(idx *rsmi.Sharded) *Replicator {
	return newReplicator(idx, opLogCap)
}

// newReplicator is NewReplicator with the oplog retention as a
// parameter, for the retention tests.
func newReplicator(idx *rsmi.Sharded, logCap int) *Replicator {
	r := &Replicator{idx: idx, log: newOpLog(logCap)}
	r.eng = gatedEngine{Sharded: idx, gate: &r.gate}
	idx.AddWriteHook(func(op shard.WriteOp) {
		r.log.append(op.Kind, op.P)
	})
	return r
}

// Engine returns the write-gated engine view the server must serve:
// its writes synchronise with Snapshot so every snapshot is stamped
// with exactly the sequence it reflects.
func (r *Replicator) Engine() Engine { return r.eng }

// Epoch reports the oplog epoch of this primary's life.
func (r *Replicator) Epoch() uint64 { return r.log.epoch }

// LastSeq reports the newest assigned oplog sequence.
func (r *Replicator) LastSeq() uint64 { return r.log.lastSeq() }

// Snapshot pauses writes, records the current sequence, and serialises
// the engine into memory; the returned bytes reflect exactly the writes
// with seq <= seq.
func (r *Replicator) Snapshot() (epoch, seq uint64, data []byte, err error) {
	r.gate.Lock()
	seq = r.log.lastSeq()
	var buf bytes.Buffer
	_, err = r.idx.WriteTo(&buf)
	r.gate.Unlock()
	if err != nil {
		return 0, 0, nil, err
	}
	return r.log.epoch, seq, buf.Bytes(), nil
}

func (r *Replicator) stats() *wire.ReplicationStats {
	return &wire.ReplicationStats{
		Role:      "primary",
		Epoch:     r.log.epoch,
		FirstSeq:  r.log.firstSeq(),
		LastSeq:   r.log.lastSeq(),
		Followers: r.followers.Load(),
	}
}

// gatedEngine is the primary's serving view: reads pass through,
// insert/delete additionally hold the write gate shared so Snapshot
// can exclude them. Rebuild is ungated (see the package comment). It
// embeds the index itself, so the index's other methods — NumShards for
// /v1/stats, AddWriteHook for the subscription registry — reach the
// server as they are.
type gatedEngine struct {
	*rsmi.Sharded
	gate *sync.RWMutex
}

func (g gatedEngine) InsertContext(ctx context.Context, p geom.Point) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.Sharded.InsertContext(ctx, p)
}

func (g gatedEngine) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.Sharded.DeleteContext(ctx, p)
}

// writeReplFrame writes one frame onto a feed connection — the replica's
// handshake, or a frame the primary pushes — bounded by timeout. fill
// appends the frame, opened by wire.OpenFrame or wire.OpenStreamFrame, to
// a pooled buffer; its length word is set here.
func writeReplFrame(conn net.Conn, timeout time.Duration, fill func([]byte) []byte) error {
	bp := bufPool.Get().(*[]byte)
	b := fill((*bp)[:0])
	wire.CloseFrame(b, 0)
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(b)
	if cap(b) <= bufPoolMax {
		*bp = b[:0]
		bufPool.Put(bp)
	}
	return err
}

// writeSnapshot sends r's stamped snapshot as a run of chunk frames and
// reports the sequence it reflects.
func (r *Replicator) writeSnapshot(conn net.Conn) (uint64, error) {
	epoch, seq, data, err := r.Snapshot()
	if err != nil {
		return 0, err
	}
	for final := false; !final; {
		chunk := data[:min(len(data), replSnapshotChunk)]
		data = data[len(chunk):]
		final = len(data) == 0
		err := writeReplFrame(conn, streamWriteTimeout, func(b []byte) []byte {
			return wire.AppendFeedSnapshot(wire.OpenFrame(b), epoch, seq, final, chunk)
		})
		if err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// serveReplFeed runs the dedicated replication feed on a stream
// connection whose first frame was a replication handshake. A position
// the oplog cannot serve is answered with the snapshot, then ops follow
// from the sequence it reflects. It returns when the replica disconnects,
// a write fails, or the server shuts down; the caller closes the
// connection.
func (s *Server) serveReplFeed(conn net.Conn, payload []byte) {
	r := s.cfg.Replicator
	if r == nil {
		return
	}
	epoch, from, err := wire.DecodeFeedHandshake(payload)
	if err != nil {
		return
	}
	r.followers.Add(1)
	defer r.followers.Add(-1)

	// The replica sends nothing after its handshake; a successful read —
	// or any read error, including the past deadline Shutdown sets on
	// live stream connections — means the feed is over.
	closed := make(chan struct{})
	go func() {
		var b [1]byte
		conn.Read(b[:])
		close(closed)
	}()

	recsBuf := make([]wire.FeedRecord, 0, replBatchMax)
	heartbeat := time.NewTimer(replHeartbeatEvery)
	defer heartbeat.Stop()
	unservable := epoch != r.log.epoch
	for {
		if unservable {
			seq, err := r.writeSnapshot(conn)
			if err != nil {
				return
			}
			from = seq + 1
		}
		recs, updated, ok := r.log.readFrom(recsBuf, from)
		if unservable = !ok; unservable {
			continue
		}
		if len(recs) > 0 {
			err := writeReplFrame(conn, streamWriteTimeout, func(b []byte) []byte {
				return wire.AppendFeedOps(wire.OpenFrame(b), recs)
			})
			if err != nil {
				return
			}
			from = recs[len(recs)-1].Seq + 1
			continue
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(replHeartbeatEvery)
		select {
		case <-updated:
		case <-heartbeat.C:
			err := writeReplFrame(conn, streamWriteTimeout, func(b []byte) []byte {
				return wire.AppendFeedHeartbeat(wire.OpenFrame(b), r.log.lastSeq(), time.Now().UnixNano())
			})
			if err != nil {
				return
			}
		case <-s.streamStop:
			return
		case <-closed:
			return
		}
	}
}
