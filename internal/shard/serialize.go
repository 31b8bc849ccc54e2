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

// Snapshot serialisation. Training at paper scale takes hours (§6.2.2), so
// a serving deployment builds once and reloads across restarts
// (cmd/rsmi-serve -snapshot). The format is the shard layout — options,
// per-shard routing regions — with each shard's RSMI embedded as a
// length-prefixed core stream (the existing internal/core / internal/store
// writers), so a loaded index answers every query identically to the
// original.

// shardMagic identifies the sharded snapshot file format.
var shardMagic = [8]byte{'R', 'S', 'M', 'I', 'S', 'h', '1', 0}

// spacePartitioned is the header's partitioning word. Every shard layout is
// contiguous curve runs, so it is always written 0; the word stays so that
// no byte of the format moves, and Load refuses a file that claims another
// partitioning (1 was hash partitioning, whose point routing is gone).
const spacePartitioned = 0

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
	for _, v := range []int64{int64(len(s.shards)), int64(s.opts.Workers), spacePartitioned} {
		if err := put(v); err != nil {
			return written, err
		}
	}
	n, err := core.WriteOptions(bw, s.opts.Index, false)
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
		return nil, errors.New("shard: not a sharded RSMI snapshot")
	}
	var layout [3]int64
	for i := range layout {
		if err := binary.Read(br, binary.LittleEndian, &layout[i]); err != nil {
			return nil, fmt.Errorf("shard: read header: %w", err)
		}
	}
	shards, workers, parts := layout[0], layout[1], layout[2]
	const maxShards = 1 << 16
	if shards < 1 || shards > maxShards || workers < 1 || workers > maxShards {
		return nil, fmt.Errorf("shard: implausible layout shards=%d workers=%d", shards, workers)
	}
	if parts != spacePartitioned {
		return nil, fmt.Errorf("shard: partitioning %d is not space partitioning (0); rebuild the index from its points", parts)
	}
	opts, err := core.ReadOptions(br)
	if err != nil {
		return nil, fmt.Errorf("shard: header: %w", err)
	}
	s := &Sharded{opts: Options{Shards: int(shards), Workers: int(workers), Index: opts}}
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
