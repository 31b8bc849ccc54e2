package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

// snapshotSansBuildTimes serialises s with the one wall-clock field of each
// shard's stream — its build time, the first place those eight bytes occur —
// zeroed.
func snapshotSansBuildTimes(t *testing.T, s *Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	snap := buf.Bytes()
	for i, sh := range s.shards {
		field := binary.LittleEndian.AppendUint64(nil, uint64(sh.idx.Stats().BuildTime))
		at := bytes.Index(snap, field)
		if at < 0 {
			t.Fatalf("shard %d: build time %v not found in the snapshot", i, sh.idx.Stats().BuildTime)
		}
		clear(snap[at : at+len(field)])
	}
	return snap
}

// TestBuildDeterministic: shards build on goroutines of their own, from runs
// of one ordering; two builds of the same points and options still write
// byte-identical snapshots — same partition, regions, blocks, kernels and
// bounds — so neither a sort's tie-handling nor scheduling reaches an index.
func TestBuildDeterministic(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 5000, 57)
	pts = append(pts, pts[:250]...) // duplicate points: ties in every sort
	for _, parts := range []Partitioning{Space, Hash} {
		a := snapshotSansBuildTimes(t, New(pts, quickOpts(parts, 4)))
		b := snapshotSansBuildTimes(t, New(pts, quickOpts(parts, 4)))
		if !bytes.Equal(a, b) {
			t.Errorf("%v: two builds of the same input wrote different snapshots (%d and %d bytes)", parts, len(a), len(b))
		}
	}
}

// TestShardedRoundTrip saves and reloads a sharded index that has seen
// updates, then requires the loaded index to answer every query class
// identically to the original — the restart-without-retraining guarantee
// behind cmd/rsmi-serve -snapshot.
func TestShardedRoundTrip(t *testing.T) {
	for _, parts := range []Partitioning{Space, Hash} {
		parts := parts
		t.Run(parts.String(), func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Skewed, 2500, 51)
			s := New(pts, quickOpts(parts, 4))
			for _, p := range workload.InsertPoints(pts, 400, 52) {
				mustInsert(t, s, p)
			}
			for _, p := range workload.DeleteSample(pts, 200, 53) {
				must(s.DeleteContext(bg, p))
			}

			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}

			if loaded.Len() != s.Len() {
				t.Fatalf("Len: loaded %d, original %d", loaded.Len(), s.Len())
			}
			if loaded.NumShards() != s.NumShards() {
				t.Fatalf("NumShards: loaded %d, original %d", loaded.NumShards(), s.NumShards())
			}
			if lo, oo := loaded.Options(), s.Options(); lo != oo {
				t.Fatalf("Options: loaded %+v, original %+v", lo, oo)
			}

			// Every query class must answer identically: the loaded models,
			// blocks, error bounds, and routing regions are bit-identical.
			for qi, q := range workload.Windows(pts, 30, 0.01, 1, 54) {
				sameSet(t, "WindowQuery", must(loaded.WindowQueryContext(bg, q)), must(s.WindowQueryContext(bg, q)))
				sameSet(t, "ExactWindow", must(loaded.ExactWindowContext(bg, q)), must(s.ExactWindowContext(bg, q)))
				c := q.Center()
				for _, k := range []int{1, 5, 25} {
					g, w := must(loaded.KNNContext(bg, c, k)), must(s.KNNContext(bg, c, k))
					if len(g) != len(w) {
						t.Fatalf("KNN(%d) query %d: %d vs %d points", k, qi, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("KNN(%d) query %d point %d: %v vs %v", k, qi, i, g[i], w[i])
						}
					}
					sameSet(t, "ExactKNN", must(loaded.ExactKNNContext(bg, c, k)), must(s.ExactKNNContext(bg, c, k)))
				}
			}
			for i := 0; i < 300; i++ {
				p := pts[(i*37)%len(pts)]
				if must(loaded.PointQueryContext(bg, p)) != must(s.PointQueryContext(bg, p)) {
					t.Fatalf("PointQuery(%v) differs after round-trip", p)
				}
			}

			// The loaded index stays fully usable: updates and rebuilds work.
			p := geom.Pt(0.42, 0.24)
			mustInsert(t, loaded, p)
			if !must(loaded.PointQueryContext(bg, p)) {
				t.Fatal("insert into loaded index lost")
			}
			if err := loaded.RebuildContext(bg); err != nil {
				t.Fatal(err)
			}
			if !must(loaded.PointQueryContext(bg, p)) {
				t.Fatal("point lost across post-load rebuild")
			}
		})
	}
}

// TestShardedRoundTripEmpty covers the degenerate snapshot.
func TestShardedRoundTripEmpty(t *testing.T) {
	s := New(nil, quickOpts(Space, 3))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != 0 || loaded.NumShards() != 3 {
		t.Fatalf("loaded empty index: len=%d shards=%d", loaded.Len(), loaded.NumShards())
	}
	mustInsert(t, loaded, geom.Pt(0.5, 0.5))
	if !must(loaded.PointQueryContext(bg, geom.Pt(0.5, 0.5))) {
		t.Fatal("insert into loaded empty index lost")
	}
}

// TestLoadRejectsGarbage checks the format guards.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	// A truncated valid prefix must error, not hang or panic.
	pts := dataset.Generate(dataset.Uniform, 500, 55)
	s := New(pts, quickOpts(Space, 2))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("Load accepted truncated snapshot")
	}
}

// TestLoadRefusesV1: the sharded container did not change, but a file whose
// embedded shard streams are RSMIv1 is refused with core's explanation, not
// loaded with error bounds that no longer hold.
func TestLoadRefusesV1(t *testing.T) {
	s := New(dataset.Generate(dataset.Uniform, 500, 56), quickOpts(Space, 2))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	v1 := bytes.ReplaceAll(buf.Bytes(), []byte("RSMIv2\x00\x00"), []byte("RSMIv1\x00\x00"))
	if bytes.Equal(v1, buf.Bytes()) {
		t.Fatal("snapshot holds no RSMIv2 magic to downgrade")
	}
	if _, err := Load(bytes.NewReader(v1)); !errors.Is(err, core.ErrSnapshotV1) {
		t.Fatalf("Load of a snapshot with v1 shards: %v, want core.ErrSnapshotV1", err)
	}
}
