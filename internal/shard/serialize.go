package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"rsmi/internal/core"
)

// Snapshot serialisation. A build sorts every point (and the paper's
// models take hours to train at scale, §6.2.2), so a serving deployment
// builds once and reloads across restarts (cmd/rsmi-serve -snapshot). The
// format is the magic, the shard count, then each shard's RSMI as a
// length-prefixed core stream (the internal/core / internal/store
// writers). Nothing a shard's stream already says is stored beside it: a
// shard rebuilds with its stream's options and routes by its root's MBR,
// so a loaded index answers every query, and routes every insert,
// identically to the original.

// shardMagic identifies the sharded snapshot format, RSMISh3. Every other
// version is refused with core.ErrSnapshotVersion.
var shardMagic = [8]byte{'R', 'S', 'M', 'I', 'S', 'h', '3', 0}

// WriteTo serialises the index. It implements io.WriterTo. Each shard is
// serialised under its read lock (taken one shard at a time, like a
// rolling rebuild), so WriteTo is safe to run while the index keeps
// serving; the snapshot is consistent per shard, not across shards.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	var written int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	// The magic's array is full, so the append copies it.
	if err := write(binary.LittleEndian.AppendUint64(shardMagic[:], uint64(len(s.shards)))); err != nil {
		return written, fmt.Errorf("shard: write header: %w", err)
	}
	var buf bytes.Buffer
	for i, sh := range s.shards {
		buf.Reset()
		buf.Write(make([]byte, 8)) // the length prefix, set below
		sh.mu.RLock()
		_, err := sh.idx.WriteTo(&buf)
		sh.mu.RUnlock()
		if err != nil {
			return written, fmt.Errorf("shard: serialise shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(buf.Bytes(), uint64(buf.Len()-8))
		if err := write(buf.Bytes()); err != nil {
			return written, fmt.Errorf("shard: write shard %d: %w", i, err)
		}
	}
	return written, nil
}

// Load deserialises an index written by WriteTo. The loaded index serves
// identically to the original; Stats().BuildTime reports the load time.
// Each shard's region is its loaded root's MBR, which core.Load has checked
// covers every point of the shard.
func Load(r io.Reader) (*Sharded, error) {
	start := time.Now()
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("shard: read magic: %w", err)
	}
	if magic != shardMagic {
		if string(magic[:6]) != "RSMISh" {
			return nil, errors.New("shard: not a sharded RSMI snapshot")
		}
		name, _, _ := bytes.Cut(magic[:], []byte{0})
		return nil, fmt.Errorf("shard: %q snapshot refused: %w", name, core.ErrSnapshotVersion)
	}
	var shards int64
	if err := binary.Read(br, binary.LittleEndian, &shards); err != nil {
		return nil, fmt.Errorf("shard: read header: %w", err)
	}
	const maxShards = 1 << 16
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("shard: implausible layout shards=%d", shards)
	}
	s := &Sharded{shards: make([]*state, shards)}
	for i := range s.shards {
		var n int64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("shard: read shard %d length: %w", i, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("shard: negative shard %d length", i)
		}
		// The length prefix frames the core stream exactly, so core.Load's
		// internal buffering cannot consume the next shard's bytes.
		lim := io.LimitReader(br, n)
		idx, err := core.Load(lim)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", i, err)
		}
		if rest, err := io.Copy(io.Discard, lim); err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", i, err)
		} else if rest > 0 {
			return nil, fmt.Errorf("shard: shard %d stream has %d trailing bytes", i, rest)
		}
		s.shards[i] = newState(idx)
	}
	s.buildTime = time.Since(start)
	return s, nil
}
