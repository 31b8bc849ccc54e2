package server

// The primary's sequenced operation log: a bounded in-memory ring of
// applied writes (insert/delete/rebuild), appended by the shard write
// hook and shipped to replicas over the rsmistream listener
// (replication.go). Sequence numbers start at 1 and are dense — replicas
// apply records in order and track exactly one integer of progress.
//
// The ring retains the most recent opLogCap records. A replica
// asking for a sequence that has fallen out of retention is sent a
// fresh snapshot on its feed instead (a resync); retention is a
// catch-up window, not durability (the snapshot is the durable form).
//
// Each log carries an epoch drawn at random per process start. A
// primary that restarts — even from the same snapshot — starts a new
// epoch with sequence numbers from 1, so a replica resuming with
// sequence numbers from the previous life cannot silently mis-apply;
// the epoch mismatch forces a resync.

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/shard"
	"rsmi/internal/wire"
)

// opLogCap is the oplog retention in records.
const opLogCap = 1 << 16

// opLog is the ring. Appends come from the shard write hook — under a
// shard write lock — so the critical section stays minimal: one slot
// store and a channel swap.
type opLog struct {
	epoch uint64

	mu      sync.Mutex
	buf     []wire.FeedRecord
	next    uint64        // seq the next append receives (first is 1)
	updated chan struct{} // closed and replaced on every append
}

// newEpoch draws a random epoch; zero is reserved as "no epoch".
func newEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
	return 1
}

func newOpLog(capacity int) *opLog {
	return &opLog{
		epoch:   newEpoch(),
		buf:     make([]wire.FeedRecord, capacity),
		next:    1,
		updated: make(chan struct{}),
	}
}

// append assigns the next sequence number to one applied write and
// wakes every waiting feeder. The record carries the primary's wall
// clock (UnixNano) over the feed, so replicas can report lag in seconds
// without comparing two hosts' clocks (see Replica.LagSeconds).
func (l *opLog) append(kind shard.WriteKind, p geom.Point) uint64 {
	l.mu.Lock()
	seq := l.next
	l.next++
	l.buf[seq%uint64(len(l.buf))] = wire.FeedRecord{Seq: seq, Kind: byte(kind), P: p, At: time.Now().UnixNano()}
	ch := l.updated
	l.updated = make(chan struct{})
	l.mu.Unlock()
	close(ch)
	return seq
}

// capacity reports the ring's retention in records.
func (l *opLog) capacity() int { return len(l.buf) }

// lastSeq reports the newest assigned sequence (0 when empty).
func (l *opLog) lastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// firstSeq reports the oldest retained sequence (0 when empty).
func (l *opLog) firstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLocked()
}

func (l *opLog) firstLocked() uint64 {
	if l.next == 1 {
		return 0
	}
	if l.next-1 <= uint64(len(l.buf)) {
		return 1
	}
	return l.next - uint64(len(l.buf))
}

// readFrom copies the retained records with seq >= from into dst (up to
// cap(dst) of them, oldest first) and returns the filled slice plus the
// channel that the next append will close. ok is false when from has
// fallen out of retention — the caller must resync its follower.
// from == next (fully caught up) returns an empty slice and ok true.
func (l *opLog) readFrom(dst []wire.FeedRecord, from uint64) (recs []wire.FeedRecord, updated <-chan struct{}, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from == 0 {
		from = 1
	}
	if first := l.firstLocked(); l.next > 1 && from < first {
		return nil, l.updated, false
	}
	if from > l.next {
		// The follower claims progress the log never assigned: it is
		// following a different history (wrong epoch handling upstream);
		// resync.
		return nil, l.updated, false
	}
	dst = dst[:0]
	for seq := from; seq < l.next && len(dst) < cap(dst); seq++ {
		dst = append(dst, l.buf[seq%uint64(len(l.buf))])
	}
	return dst, l.updated, true
}
