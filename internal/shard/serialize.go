package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/geom"
)

// Snapshot serialisation. A build sorts every point (and the paper's
// models take hours to train at scale, §6.2.2), so a serving deployment
// builds once and reloads across restarts (cmd/rsmi-serve -snapshot). The
// format is the shard layout — the shard count, the options, per-shard
// routing regions — with each shard's RSMI embedded as a length-prefixed
// core stream (the existing internal/core / internal/store writers), so a
// loaded index answers every query identically to the original.

// shardMagic identifies the sharded snapshot format, RSMISh2. Every other
// version is refused with core.ErrSnapshotVersion.
var shardMagic = [8]byte{'R', 'S', 'M', 'I', 'S', 'h', '2', 0}

// WriteTo serialises the index. It implements io.WriterTo. Each shard is
// serialised under its read lock (taken one shard at a time, like a
// rolling rebuild), so WriteTo is safe to run while the index keeps
// serving; the snapshot is consistent per shard, not across shards.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(shardMagic[:])); err != nil {
		return written, fmt.Errorf("shard: write magic: %w", err)
	}
	put := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("shard: write header: %w", err)
		}
		written += int64(binary.Size(v))
		return nil
	}
	if err := put(int64(len(s.shards))); err != nil {
		return written, err
	}
	n, err := core.WriteOptions(bw, s.opts.Index)
	written += n
	if err != nil {
		return written, fmt.Errorf("shard: write header: %w", err)
	}
	var buf bytes.Buffer
	for i, sh := range s.shards {
		buf.Reset()
		sh.mu.RLock()
		region := sh.loadRegion()
		_, err := sh.idx.WriteTo(&buf)
		sh.mu.RUnlock()
		if err != nil {
			return written, fmt.Errorf("shard: serialise shard %d: %w", i, err)
		}
		for _, f := range []float64{region.MinX, region.MinY, region.MaxX, region.MaxY} {
			if err := put(math.Float64bits(f)); err != nil {
				return written, err
			}
		}
		if err := put(int64(buf.Len())); err != nil {
			return written, err
		}
		if err := count(bw.Write(buf.Bytes())); err != nil {
			return written, fmt.Errorf("shard: write shard %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("shard: flush: %w", err)
	}
	return written, nil
}

// Load deserialises an index written by WriteTo. The loaded index serves
// identically to the original; Stats().BuildTime reports the load time.
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
	opts, err := core.ReadOptions(br)
	if err != nil {
		return nil, fmt.Errorf("shard: header: %w", err)
	}
	s := &Sharded{opts: Options{Shards: int(shards), Index: opts}.withDefaults()}
	s.shards = make([]*state, shards)
	for i := range s.shards {
		var bits [4]uint64
		for j := range bits {
			if err := binary.Read(br, binary.LittleEndian, &bits[j]); err != nil {
				return nil, fmt.Errorf("shard: read shard %d region: %w", i, err)
			}
		}
		region := geom.Rect{
			MinX: math.Float64frombits(bits[0]),
			MinY: math.Float64frombits(bits[1]),
			MaxX: math.Float64frombits(bits[2]),
			MaxY: math.Float64frombits(bits[3]),
		}
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
		// Every query routes by the regions, so one that misses a point of
		// its shard hides that point from all of them.
		for _, p := range idx.AllPoints() {
			if !region.Contains(p) {
				return nil, fmt.Errorf("shard: shard %d region %v does not cover its point %v", i, region, p)
			}
		}
		sh := &state{idx: idx}
		sh.storeRegion(region)
		s.shards[i] = sh
	}
	s.buildTime = time.Since(start)
	return s, nil
}
