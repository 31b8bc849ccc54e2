package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
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
// byte-identical snapshots — same partition, regions, blocks, cuts and
// cells — so neither a sort's tie-handling nor scheduling reaches an index.
func TestBuildDeterministic(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 5000, 57)
	pts = append(pts, pts[:250]...) // duplicate points: ties in every sort
	for _, l := range layouts {
		a := snapshotSansBuildTimes(t, New(pts, quickOpts(l.shards)))
		b := snapshotSansBuildTimes(t, New(pts, quickOpts(l.shards)))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two builds of the same input wrote different snapshots (%d and %d bytes)", l.name, len(a), len(b))
		}
	}
}

// TestShardedRoundTrip saves and reloads a sharded index that has seen
// updates, then requires the loaded index to answer every query class
// identically to the original — the restart-without-retraining guarantee
// behind cmd/rsmi-serve -snapshot.
func TestShardedRoundTrip(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Skewed, 2500, 51)
			s := New(pts, quickOpts(l.shards))
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

			// Every query class must answer identically: the loaded cuts,
			// cells, blocks and routing regions are bit-identical.
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
	s := New(nil, quickOpts(3))
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
	s := New(pts, quickOpts(2))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("Load accepted truncated snapshot")
	}
}

// downgrade returns snap with the magic of every shard stream set to an
// earlier format's.
func downgrade(t testing.TB, snap []byte, magic string) []byte {
	t.Helper()
	out := bytes.ReplaceAll(snap, []byte("RSMIv7\x00\x00"), []byte(magic+"\x00\x00"))
	if bytes.Equal(out, snap) {
		t.Fatal("snapshot holds no RSMIv7 magic to downgrade")
	}
	return out
}

// TestLoadRefusesV1: the sharded container did not change, but a file whose
// embedded shard streams are RSMIv1 to RSMIv6 is refused with core's
// explanation, not loaded with error bounds that no longer hold, without
// the spans its point queries scan, with internal or leaf models where this
// version looks points up by cuts, with leaves that own ranges of block ids
// where this version's name their blocks, or with PMFs where this version
// reads none.
func TestLoadRefusesV1(t *testing.T) {
	s := New(dataset.Generate(dataset.Uniform, 500, 56), quickOpts(2))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	for magic, want := range map[string]error{
		"RSMIv1": core.ErrSnapshotV1, "RSMIv2": core.ErrSnapshotV2, "RSMIv3": core.ErrSnapshotV3, "RSMIv4": core.ErrSnapshotV4,
		"RSMIv5": core.ErrSnapshotV5, "RSMIv6": core.ErrSnapshotV6,
	} {
		if _, err := Load(bytes.NewReader(downgrade(t, buf.Bytes(), magic))); !errors.Is(err, want) {
			t.Errorf("Load of a snapshot with %s shards: %v, want %v", magic, err, want)
		}
	}
}

// loadSeeds are the snapshots FuzzLoadSharded starts from, by name: small
// indexes that have seen inserts and deletes — so overflow chains, dead
// slots and extended regions are in the bytes — on both curves, with one
// shard and with three.
func loadSeeds(tb testing.TB) map[string][]byte {
	seeds := map[string][]byte{}
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		for _, shards := range []int{1, 3} {
			pts := dataset.Generate(dataset.Skewed, 60, 81)
			s := New(pts, Options{Shards: shards, Index: core.Options{
				BlockCapacity: 4, PartitionThreshold: 16, Epochs: 2, LearningRate: 0.1, Seed: 1, Curve: curve,
			}})
			for _, p := range workload.InsertPoints(pts, 12, 82) {
				mustInsert(tb, s, p)
			}
			for _, p := range workload.DeleteSample(pts, 8, 83) {
				must(s.DeleteContext(bg, p))
			}
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				tb.Fatal(err)
			}
			seeds[fmt.Sprintf("%s-%dshard", curve, shards)] = buf.Bytes()
		}
	}
	return seeds
}

// TestCommittedSeedsLoad: the seeds committed to FuzzLoadSharded's corpus
// are loadSeeds' snapshots in the RSMIv7 format. They load, their exact
// whole-space window holds every point, and a point query finds each of
// them. Snapshots in an earlier format cannot be converted (core's
// ErrSnapshotV1 to ErrSnapshotV6), so a format change writes them again,
// and the corpus keeps a shard stream in each of the last five earlier
// formats, which must be refused. The RSMIv4 to RSMIv6 ones are the last
// seeds those formats wrote.
func TestCommittedSeedsLoad(t *testing.T) {
	for _, name := range []string{"hilbert-1shard", "hilbert-3shard", "z-1shard", "z-3shard"} {
		s, err := Load(strings.NewReader(readCorpusEntry(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := must(s.ExactWindowContext(bg, wholeSpace))
		if s.Len() == 0 || len(got) != s.Len() {
			t.Errorf("%s: the whole-space window holds %d of %d points", name, len(got), s.Len())
		}
		for _, p := range got {
			if !must(s.PointQueryContext(bg, p)) {
				t.Errorf("%s: point query misses %v", name, p)
			}
		}
	}
	// The committed snapshots of the earlier formats are refused by name.
	for name, want := range map[string]error{
		"rsmiv2-1shard": core.ErrSnapshotV2, "rsmiv3-1shard": core.ErrSnapshotV3, "rsmiv4-1shard": core.ErrSnapshotV4,
		"rsmiv5-1shard": core.ErrSnapshotV5, "rsmiv6-1shard": core.ErrSnapshotV6,
	} {
		if _, err := Load(strings.NewReader(readCorpusEntry(t, name))); !errors.Is(err, want) {
			t.Errorf("%s: Load returned %v, want %v", name, err, want)
		}
	}
}

// readCorpusEntry returns the bytes of FuzzLoadSharded's committed corpus
// entry name.
func readCorpusEntry(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadSharded", name))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	body, ok2 := strings.CutSuffix(body, ")\n")
	snap, err := strconv.Unquote(body)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: not one []byte corpus entry (%v)", name, err)
	}
	return snap
}

// wholeSpace is a window every finite point lies in.
var wholeSpace = geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}

// FuzzLoadSharded feeds arbitrary bytes to Load, and through it to core.Load
// and store.ReadManager. Whatever Load accepts must be an index whose exact
// whole-space window holds exactly Len() points — every point reachable once
// through the models, blocks and regions the snapshot claims —, whose point
// query finds each of them (the load checked that every point descends to
// its leaf and lies in the blocks of its cell), and whose other queries
// neither panic nor hang. The committed corpus under
// testdata/fuzz/FuzzLoadSharded holds the seeds and the tampered snapshots
// the loader has to refuse.
func FuzzLoadSharded(f *testing.F) {
	for name, seed := range loadSeeds(f) {
		if _, err := Load(bytes.NewReader(seed)); err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := s.ExactWindowContext(bg, wholeSpace)
		if err != nil || len(got) != s.Len() {
			t.Fatalf("loaded index of %d points answers the whole space with %d (%v)", s.Len(), len(got), err)
		}
		for _, p := range got {
			if found, err := s.PointQueryContext(bg, p); !found || err != nil {
				t.Fatalf("loaded index of %d points: point query misses %v (%v)", s.Len(), p, err)
			}
		}
		// A point query for a point the index need not hold may read a cell
		// no live point vouched for at load: it may find nothing, but must
		// not fail, and neither may windows and kNN.
		q := geom.Pt(0.5, 0.5)
		must(s.PointQueryContext(bg, q))
		if len(got) > 0 {
			q = got[len(got)/2]
			must(s.PointQueryContext(bg, geom.Pt(q.X, math.Nextafter(q.Y, math.Inf(1)))))
		}
		must(s.WindowQueryContext(bg, geom.RectAround(q, 0.1, 0.1)))
		must(s.KNNContext(bg, q, 5))
		must(s.ExactKNNContext(bg, q, 5))
	})
}

// partitioningWord is the byte offset of the header's partitioning word:
// after the magic, the shard count and the worker count. deltaWord is the
// offset of the header's Δ, the eighth word of the option block after it.
const (
	partitioningWord = 8 + 2*8
	deltaWord        = partitioningWord + 8 + 7*8
)

// shardZero locates fields of the first shard of a snapshot, by byte offset,
// for the tampering tests: the offsets follow WriteTo here and in core and
// store, one field at a time.
type shardZero struct {
	region, n, capacity, firstNext, firstX, rootRect, leafFirst, leafStarts int
}

func locate(t *testing.T, snap []byte) shardZero {
	t.Helper()
	var z shardZero
	i64 := func(at int) int { return int(binary.LittleEndian.Uint64(snap[at:])) }
	z.region = 8 + 12*8 + 1  // magic, twelve header words, the raw flag
	cs := z.region + 4*8 + 8 // the region, the stream's length prefix
	z.n = cs + 8 + 9*8 + 1   // magic, nine option words, the raw flag
	z.capacity = z.n + 7*8   // seven scalar words
	at := z.capacity + 8 + 8 // capacity, block count
	for b := 0; b < i64(z.capacity+8); b++ {
		if b == 0 {
			z.firstNext, z.firstX = at+8, at+8+8+1+8
		}
		at += 8 + 8 + 1 + 8 + i64(at+8+8+1)*17 // prev, next, flags, slots, the slots
	}
	at += 8 + i64(at)*32 // the block MBRs
	// The root, then first children down to a leaf.
	z.rootRect = at + 1
	for {
		if snap[at] == 1 {
			z.leafFirst = at + 1 + 32 + 3*8            // tag, MBR, the points, the fill, the block count
			cuts := z.leafFirst + 4*i64(z.leafFirst-8) // the block ids
			cuts += 8 + i64(cuts)*16                   // the column cuts
			cuts += 8 + i64(cuts)*16                   // the row cuts
			z.leafStarts = cuts + 8                    // the count of prefix counts
			return z
		}
		at += 1 + 32 + 8 // tag, MBR, the point count
		cols := i64(at)
		at += 8 + cols*16 // the column cuts
		for range cols + 1 {
			at += 8 + i64(at)*16 // a column's row cuts
		}
		at += 8             // the child count
		for snap[at] == 0 { // empty cells
			at++
		}
	}
}

// tamperings are snapshots the loader has to refuse, each a header word or a
// field or two of the first shard changed, by name.
func tamperings(t *testing.T, seed []byte) map[string][]byte {
	z := locate(t, seed)
	word := func(at int) uint64 { return binary.LittleEndian.Uint64(seed[at:]) }
	f64 := math.Float64bits
	out := map[string][]byte{}
	for name, edits := range map[string][][2]uint64{
		"partitioning-1":       {{partitioningWord, 1}},        // hash partitioning, routed by a hash no longer kept
		"delta-0.02":           {{deltaWord, f64(0.02)}},       // a kNN step no version ran
		"region-misses-points": {{uint64(z.region), f64(1e9)}}, // MinX past every point
		"count-lies":           {{uint64(z.n), word(z.n) + 1}},
		"block-list-loops":     {{uint64(z.firstNext), 0}},                     // block 0 links to itself
		"point-not-finite":     {{uint64(z.firstX), f64(math.Inf(1))}},         // a live point at +Inf
		"root-mbr-too-small":   {{uint64(z.rootRect + 16), f64(-1e9)}},         // MaxX below every point
		"leaf-gap":             {{uint64(z.leafFirst), word(z.leafFirst) + 1}}, // the first leaf names the block after its first: no leaf holds that one
	} {
		snap := append([]byte(nil), seed...)
		for _, e := range edits {
			binary.LittleEndian.PutUint64(snap[e[0]:], e[1])
		}
		out[name] = snap
	}
	// Every prefix count of the first leaf made 0: each cell's blocks are
	// then the leaf's first block, within the leaf, and the points of its
	// other blocks lie outside the blocks of their cells.
	snap := append([]byte(nil), seed...)
	clear(snap[z.leafStarts : z.leafStarts+4*int(word(z.leafStarts-8))])
	out["span-misses-point"] = snap
	return out
}

// TestLoadRefusesTampered: every tampering of a valid snapshot that would
// let an exact query miss a point, find one twice, or fail is refused, and a
// header that claims more than its stream holds costs no more to read than
// the stream's size.
func TestLoadRefusesTampered(t *testing.T) {
	seeds := loadSeeds(t)
	for _, seedName := range []string{"hilbert-1shard", "z-3shard"} {
		for name, snap := range tamperings(t, seeds[seedName]) {
			_, err := Load(bytes.NewReader(snap))
			if err == nil {
				t.Errorf("%s, %s: Load accepted it", seedName, name)
			} else if name == "partitioning-1" && !strings.Contains(err.Error(), "partitioning") {
				t.Errorf("%s, %s: Load refused it with %q, which does not name the partitioning", seedName, name, err)
			} else if name == "delta-0.02" && !strings.Contains(err.Error(), "Δ") {
				t.Errorf("%s, %s: Load refused it with %q, which does not name Δ", seedName, name, err)
			} else if name == "span-misses-point" && !strings.Contains(err.Error(), "cell") {
				t.Errorf("%s, %s: Load refused it with %q, which does not name the cell", seedName, name, err)
			}
		}
	}
	seed := seeds["hilbert-1shard"]
	z := locate(t, seed)
	for name, edit := range map[string]func(snap []byte){
		// Blocks of 2^20 slots, each holding a handful: a valid snapshot,
		// whose blocks hold what was written and grow only on insertion.
		"capacity-2^20": func(snap []byte) { binary.LittleEndian.PutUint64(snap[z.capacity:], 1<<20) },
	} {
		snap := append([]byte(nil), seed...)
		edit(snap)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Load(bytes.NewReader(snap))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(snap)) {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(snap), grew)
		}
		if err == nil && len(must(s.ExactWindowContext(bg, wholeSpace))) != s.Len() {
			t.Errorf("%s: the loaded index lost points", name)
		}
	}
}

// TestBuildSnapshotGolden pins the bytes a build writes, not only that two
// builds agree: a faster sort or curve encoder must lay out the same blocks
// and the same cuts and cells. The inputs reach every
// ordering path — exact duplicate points, a partition and a root big enough
// for Ranks to sort x and y on two goroutines, internal nodes over leaves,
// and both curves. The digests are of amd64 builds.
func TestBuildSnapshotGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are of amd64 builds")
	}
	pts := dataset.Generate(dataset.Skewed, 40_000, 7)
	pts = append(pts, pts[:2000]...)
	for _, c := range []struct {
		shards int
		curve  sfc.Kind
		want   string
	}{
		{2, sfc.Hilbert, "c666611190a9fd3412207ae2638629db16ff609275cb90c35297c78395bbc09d"},
		{1, sfc.Z, "ec8a33f17f78a86ef00a9eff9b2338be6a6c1a769f40d539104f168d995b894c"},
	} {
		s := New(pts, Options{Shards: c.shards, Index: core.Options{Epochs: 2, Seed: 1, Curve: c.curve}})
		if got := fmt.Sprintf("%x", sha256.Sum256(snapshotSansBuildTimes(t, s))); got != c.want {
			t.Errorf("%d shards, %v curve: snapshot sha256 %s, want %s", c.shards, c.curve, got, c.want)
		}
	}
}

// rebuiltHistory is a two-shard index rebuilt after a fixed history of
// inserts and deletes.
func rebuiltHistory(t *testing.T) *Sharded {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 6000, 11)
	s := New(pts, Options{Shards: 2, Index: core.Options{Epochs: 2, Seed: 3}})
	for i, p := range dataset.Generate(dataset.Uniform, 1500, 12) {
		mustInsert(t, s, p)
		if i%3 == 0 {
			if !must(s.DeleteContext(bg, pts[i])) {
				t.Fatalf("delete of indexed point %v refused", pts[i])
			}
		}
	}
	if err := s.RebuildContext(bg); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRebuildSnapshotGolden pins the bytes a rolling rebuild writes after a
// fixed history of inserts and deletes: rebuilding a shard from one owned copy
// of its live points, rather than two, must hand the build the same points in
// the same order under the same options and seed. Digests are of amd64
// builds, as in TestBuildSnapshotGolden.
func TestRebuildSnapshotGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are of amd64 builds")
	}
	s := rebuiltHistory(t)
	const want = "56e58a6b9c19be3bd586b8d8e17e4689b7c5f3441b8f5fbeee4661909842b2fb"
	if got := fmt.Sprintf("%x", sha256.Sum256(snapshotSansBuildTimes(t, s))); got != want {
		t.Errorf("rebuilt snapshot sha256 %s, want %s", got, want)
	}
}
