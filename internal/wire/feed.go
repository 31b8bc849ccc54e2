package wire

// The replication oplog feed. A replica opens it by sending a handshake
// as its first stream request frame; the primary then dedicates the
// connection to pushed feed frames, which carry no request id:
//
//	handshake   'R','L', version, uvarint epoch, uvarint from-sequence
//	ops         'R','L', version, 1, uvarint n, n × record
//	  record      uvarint seq, kind byte, uvarint at
//	              [, x f64, y f64 — every kind but rebuild]
//	resync      'R','L', version, 2, uvarint epoch
//	heartbeat   'R','L', version, 3, uvarint last seq, uvarint clock
//
// Every rsmibin request starts 'R','B', 1, so the stream listener tells a
// handshake from a request on its first three bytes. Version 2 added the
// per-record and heartbeat timestamps (the primary's wall clock,
// UnixNano) so replicas can report lag in seconds. A version-1 peer on
// either side fails the three-byte handshake match and the replica
// re-dials until versions agree — mixed versions fail loudly instead of
// silently mis-decoding timestamped frames.

import (
	"errors"
	"fmt"

	"rsmi/internal/geom"
)

const (
	feedMagic0  byte = 'R'
	feedMagic1  byte = 'L'
	feedVersion byte = 2
)

// Feed frame types.
const (
	// FeedOps carries a batch of sequenced oplog records.
	FeedOps byte = 1
	// FeedResync tells the replica its position is unservable (epoch
	// mismatch or out of retention): re-bootstrap from a snapshot.
	FeedResync byte = 2
	// FeedHeartbeat carries the primary's last sequence and wall clock
	// so an idle replica can both detect a dead link and report zero lag.
	FeedHeartbeat byte = 3
)

// FeedRecord is one sequenced applied write. Kind is a shard.WriteKind
// value; a rebuild record carries no point. At is the primary's wall
// clock (UnixNano) when the write was logged.
type FeedRecord struct {
	Seq  uint64
	Kind byte
	P    geom.Point
	At   int64
}

// appendFeedHeader starts a feed payload: magic and version.
func appendFeedHeader(b []byte) []byte {
	return append(b, feedMagic0, feedMagic1, feedVersion)
}

// IsFeedHandshake reports whether a stream request payload is a
// replication handshake rather than an rsmibin request.
func IsFeedHandshake(payload []byte) bool {
	return len(payload) >= 3 &&
		payload[0] == feedMagic0 && payload[1] == feedMagic1 && payload[2] == feedVersion
}

// AppendFeedHandshake appends a handshake payload: the follower's known
// epoch (0 on first contact) and the first sequence it wants.
func AppendFeedHandshake(b []byte, epoch, from uint64) []byte {
	return appendUvarint(appendUvarint(appendFeedHeader(b), epoch), from)
}

// DecodeFeedHandshake parses a handshake payload IsFeedHandshake
// accepted.
func DecodeFeedHandshake(payload []byte) (epoch, from uint64, err error) {
	r := &binReader{data: payload[3:]}
	epoch = r.uvarint()
	from = r.uvarint()
	if r.err != nil {
		return 0, 0, fmt.Errorf("repl: bad handshake: %w", r.err)
	}
	if len(r.data) != 0 {
		return 0, 0, fmt.Errorf("repl: trailing bytes after handshake")
	}
	return epoch, from, nil
}

// AppendFeedOps appends an ops frame payload.
func AppendFeedOps(b []byte, recs []FeedRecord) []byte {
	b = append(appendFeedHeader(b), FeedOps)
	b = appendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = appendUvarint(b, rec.Seq)
		b = append(b, rec.Kind)
		b = appendUvarint(b, uint64(rec.At))
		if rec.Kind != kindRebuild {
			b = appendF64(b, rec.P.X)
			b = appendF64(b, rec.P.Y)
		}
	}
	return b
}

// AppendFeedResync appends a resync frame payload naming the primary's
// epoch.
func AppendFeedResync(b []byte, epoch uint64) []byte {
	return appendUvarint(append(appendFeedHeader(b), FeedResync), epoch)
}

// AppendFeedHeartbeat appends a heartbeat frame payload: the primary's
// last sequence and its wall clock (UnixNano).
func AppendFeedHeartbeat(b []byte, last uint64, clock int64) []byte {
	b = appendUvarint(append(appendFeedHeader(b), FeedHeartbeat), last)
	return appendUvarint(b, uint64(clock))
}

// FeedFrame is one decoded feed frame: its Type, then the fields that
// type carries.
type FeedFrame struct {
	Type byte
	// LastSeq and Clock are a heartbeat's.
	LastSeq uint64
	Clock   int64
	// Recs are an ops frame's records; Decode reuses the slice.
	Recs []FeedRecord
}

// Decode parses a pushed feed frame payload into f. A malformed frame is
// an error as a whole: f then holds no records.
func (f *FeedFrame) Decode(payload []byte) error {
	f.Recs = f.Recs[:0]
	if len(payload) < 4 || !IsFeedHandshake(payload) {
		return errors.New("repl: bad feed frame header")
	}
	f.Type = payload[3]
	r := &binReader{data: payload[4:]}
	switch f.Type {
	case FeedResync:
		return nil
	case FeedHeartbeat:
		f.LastSeq = r.uvarint()
		f.Clock = int64(r.uvarint())
		if r.err != nil {
			return fmt.Errorf("repl: bad heartbeat: %w", r.err)
		}
		return nil
	case FeedOps:
		n := r.count(3) // seq, kind, at
		for i := uint64(0); i < n && r.err == nil; i++ {
			rec := FeedRecord{Seq: r.uvarint(), Kind: r.byte(), At: int64(r.uvarint())}
			if rec.Kind != kindRebuild {
				rec.P = geom.Pt(r.f64(), r.f64())
			}
			f.Recs = append(f.Recs, rec)
		}
		switch {
		case r.err != nil:
			f.Recs = f.Recs[:0]
			return fmt.Errorf("repl: bad ops frame: %w", r.err)
		case len(r.data) != 0:
			f.Recs = f.Recs[:0]
			return errors.New("repl: trailing bytes in ops frame")
		}
		return nil
	}
	return fmt.Errorf("repl: unknown feed frame type %d", f.Type)
}
