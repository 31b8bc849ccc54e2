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
	"rsmi/internal/sfc"
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
	o := s.opts
	raw := uint8(0)
	if o.Index.RawGridLeafOrder {
		raw = 1
	}
	for _, v := range []interface{}{
		int64(len(s.shards)), int64(o.Workers), int64(spacePartitioned),
		int64(o.Index.BlockCapacity), int64(o.Index.PartitionThreshold),
		int64(o.Index.Curve), o.Index.LearningRate, int64(o.Index.Epochs),
		o.Index.TargetLoss, int64(o.Index.Gamma), o.Index.Delta,
		o.Index.Seed, raw,
	} {
		if err := put(v); err != nil {
			return written, err
		}
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
	var (
		i64  [8]int64
		lr   float64
		tl   float64
		dlt  float64
		seed int64
		raw  uint8
	)
	for _, v := range []interface{}{
		&i64[0], &i64[1], &i64[2], &i64[3], &i64[4], &i64[5],
		&lr, &i64[6], &tl, &i64[7], &dlt, &seed, &raw,
	} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("shard: read header: %w", err)
		}
	}
	shards, workers, parts := i64[0], i64[1], i64[2]
	const maxShards = 1 << 16
	if shards < 1 || shards > maxShards || workers < 1 || workers > maxShards {
		return nil, fmt.Errorf("shard: implausible layout shards=%d workers=%d", shards, workers)
	}
	if parts != spacePartitioned {
		return nil, fmt.Errorf("shard: partitioning %d is not space partitioning (0); rebuild the index from its points", parts)
	}
	s := &Sharded{opts: Options{
		Shards:  int(shards),
		Workers: int(workers),
		Index: core.Options{
			BlockCapacity:      int(i64[3]),
			PartitionThreshold: int(i64[4]),
			Curve:              sfc.Kind(i64[5]),
			LearningRate:       lr,
			Epochs:             int(i64[6]),
			TargetLoss:         tl,
			Gamma:              int(i64[7]),
			Delta:              dlt,
			Seed:               seed,
			RawGridLeafOrder:   raw&1 != 0,
		},
	}}
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
