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
	"rsmi/internal/index/indextest"
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
// byte-identical snapshots — same partition, root MBRs, blocks, cuts and
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
			for i, sh := range s.shards {
				if lo, oo := loaded.shards[i].idx.Options(), sh.idx.Options(); lo != oo {
					t.Fatalf("shard %d options: loaded %+v, original %+v", i, lo, oo)
				}
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

// TestLoadRefusesOldVersions: a sharded file of any other format version
// than RSMISh3, or one whose shard streams are of another version than
// RSMIv9, is refused with core.ErrSnapshotVersion, in words that name the
// version found. The older files are the committed FuzzLoadSharded seeds,
// the last each stream format wrote: RSMISh1 files up to rsmiv7-1shard, an
// RSMISh2 file for rsmiv8-1shard. The others are this version's snapshot
// with a magic rewritten.
func TestLoadRefusesOldVersions(t *testing.T) {
	type refusal struct {
		snap    []byte
		version string
	}
	cases := map[string]refusal{}
	for v := 2; v <= 8; v++ {
		header := "RSMISh1"
		if v == 8 {
			header = "RSMISh2"
		}
		name := fmt.Sprintf("rsmiv%d-1shard", v)
		cases[name] = refusal{[]byte(readCorpusEntry(t, name)), header}
	}
	var buf bytes.Buffer
	if _, err := New(dataset.Generate(dataset.Uniform, 500, 56), quickOpts(2)).WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	for _, r := range [][2]string{{"RSMISh3", "RSMISh2"}, {"RSMISh3", "RSMISh4"}, {"RSMIv9", "RSMIv8"}, {"RSMIv9\x00", "RSMIv10"}} {
		snap := bytes.ReplaceAll(buf.Bytes(), []byte(r[0]+"\x00"), []byte(r[1]+"\x00"))
		if bytes.Equal(snap, buf.Bytes()) {
			t.Fatalf("the snapshot holds no %s magic", r[0])
		}
		cases[r[1]] = refusal{snap, r[1]}
	}
	for name, c := range cases {
		_, err := Load(bytes.NewReader(c.snap))
		if !errors.Is(err, core.ErrSnapshotVersion) || !strings.Contains(err.Error(), c.version) {
			t.Errorf("%s: Load returned %v, want core.ErrSnapshotVersion naming %s", name, err, c.version)
		}
	}
}

// loadSeeds are the snapshots FuzzLoadSharded starts from, by name: small
// indexes that have seen inserts and deletes — so overflow chains,
// repacked leaves and extended root MBRs are in the bytes — on both curves,
// with one shard and with three.
func loadSeeds(tb testing.TB) map[string][]byte {
	seeds := map[string][]byte{}
	for name, s := range seedIndexes(tb) {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds[name] = buf.Bytes()
	}
	return seeds
}

// seedIndexes are the indexes loadSeeds writes, by name.
func seedIndexes(tb testing.TB) map[string]*Sharded {
	seeds := map[string]*Sharded{}
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		for _, shards := range []int{1, 3} {
			pts := dataset.Generate(dataset.Skewed, 60, 81)
			s := New(pts, Options{Shards: shards, Index: core.Options{BlockCapacity: 4, PartitionThreshold: 16, Curve: curve}})
			for _, p := range workload.InsertPoints(pts, 12, 82) {
				mustInsert(tb, s, p)
			}
			for _, p := range workload.DeleteSample(pts, 8, 83) {
				must(s.DeleteContext(bg, p))
			}
			seeds[fmt.Sprintf("%s-%dshard", curve, shards)] = s
		}
	}
	return seeds
}

// bRewritten is the b-rewritten seed: a one-shard snapshot of one leaf of
// 2-point blocks whose shard stream's B word is rewritten to 100. B is
// stored once, so the loaded blocks take 100 points each, and the burst of
// inserts FuzzLoadSharded makes repacks the leaf into them.
func bRewritten(tb testing.TB) []byte {
	s := New(dataset.Generate(dataset.Skewed, 60, 84), Options{Shards: 1, Index: core.Options{BlockCapacity: 2, PartitionThreshold: 100}})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	snap := buf.Bytes()
	binary.LittleEndian.PutUint64(snap[locate(tb, snap).b:], 100)
	return snap
}

// committedSeeds are the corpus entries of FuzzLoadSharded that load: the
// snapshots loadSeeds and bRewritten write.
var committedSeeds = []string{"hilbert-1shard", "hilbert-3shard", "z-1shard", "z-3shard", "b-rewritten"}

// TestCommittedSeedsLoad: the seeds committed to FuzzLoadSharded's corpus
// are loadSeeds' snapshots in the RSMISh3 and RSMIv9 formats, and
// b-rewritten is bRewritten's. They load, their exact whole-space window
// holds every point, and a point query finds each of them. Snapshots in an
// earlier format cannot be converted (core.ErrSnapshotVersion), so a format
// change writes them again; TestLoadRefusesOldVersions refuses the ones the
// earlier formats wrote.
func TestCommittedSeedsLoad(t *testing.T) {
	for _, name := range committedSeeds {
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
}

// TestStatsSurviveLoad: a load counts the points, the leaves and the
// height off the tree it reads, so Stats after Load is Stats at save: for
// rebuiltHistory, shard by shard with the build times the streams store; for
// every committed seed against the build that wrote it, build times aside;
// and for every committed seed saved and loaded again.
func TestStatsSurviveLoad(t *testing.T) {
	reload := func(s *Sharded) *Sharded {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return must(Load(&buf))
	}
	check := func(name string, saved, loaded *Sharded, sansBuildTimes bool) {
		t.Helper()
		want, got := saved.ShardStats(), loaded.ShardStats()
		for i := range got {
			if sansBuildTimes {
				want[i].BuildTime, got[i].BuildTime = 0, 0
			}
			if got[i] != want[i] {
				t.Errorf("%s, shard %d: Stats after Load %+v, at save %+v", name, i, got[i], want[i])
			}
		}
		w, g := saved.Stats(), loaded.Stats()
		w.BuildTime, g.BuildTime = 0, 0 // a loaded index reports its load time
		if g != w || len(got) != len(want) {
			t.Errorf("%s: Stats after Load %+v, at save %+v", name, g, w)
		}
	}
	h := rebuiltHistory(t)
	check("rebuiltHistory", h, reload(h), false)
	built := seedIndexes(t)
	for _, name := range committedSeeds {
		s := must(Load(strings.NewReader(readCorpusEntry(t, name))))
		if b, ok := built[name]; ok {
			check(name+" against its build", b, s, true)
		}
		check(name, s, reload(s), false)
	}
}

// TestRebuildKeepsShardOptions: a shard rebuilds with its own index's
// options, which its stream stores, so a two-shard index of 50-point blocks
// that is saved, loaded and rebuilt keeps each shard's block count.
func TestRebuildKeepsShardOptions(t *testing.T) {
	s := New(dataset.Generate(dataset.Skewed, 20_000, 58), Options{Shards: 2, Index: core.Options{BlockCapacity: 50}})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := must(Load(&buf))
	if err := loaded.RebuildContext(bg); err != nil {
		t.Fatal(err)
	}
	saved, rebuilt := s.ShardStats(), loaded.ShardStats()
	for i := range saved {
		if rebuilt[i].Blocks != saved[i].Blocks {
			t.Errorf("shard %d: %d blocks after save, load and rebuild, %d at save", i, rebuilt[i].Blocks, saved[i].Blocks)
		}
		if o := loaded.shards[i].idx.Options(); o.BlockCapacity != 50 {
			t.Errorf("shard %d rebuilt with B = %d, want 50", i, o.BlockCapacity)
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
// through the models and blocks the snapshot claims —, whose point
// query finds each of them (the load checked that every point descends to
// its leaf and lies in the blocks of its cell), and whose other queries
// neither panic nor hang. It must take writes too: a burst of jittered
// copies of one of its points, enough to fill that point's block and chain
// overflow blocks under it, which repacks its leaf, and the deletes of the
// copies again leave an index that holds what it held and finds each point.
// The committed corpus under testdata/fuzz/FuzzLoadSharded holds the seeds
// and the tampered snapshots the loader has to refuse.
func FuzzLoadSharded(f *testing.F) {
	seeds := loadSeeds(f)
	seeds["b-rewritten"] = bRewritten(f)
	for name, seed := range seeds {
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
		got := checkHeld(t, s)
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
		if len(got) == 0 {
			return
		}
		burst := make([]geom.Point, 256)
		x, toward := q.X, math.Inf(-1)
		if x < 0 {
			toward = math.Inf(1)
		}
		for i := range burst {
			x = math.Nextafter(x, toward)
			burst[i] = geom.Pt(x, q.Y)
			if err := s.InsertContext(bg, burst[i]); err != nil {
				t.Fatalf("insert of %v: %v", burst[i], err)
			}
		}
		for _, p := range burst {
			if !must(s.DeleteContext(bg, p)) {
				t.Fatalf("delete of the inserted %v found nothing", p)
			}
		}
		if again := checkHeld(t, s); len(again) != len(got) {
			t.Fatalf("the index held %d points before the inserts and deletes, %d after", len(got), len(again))
		}
	})
}

// checkHeld returns the points of s's exact whole-space window after
// checking that they are Len() points and that a point query finds each.
func checkHeld(t *testing.T, s *Sharded) []geom.Point {
	t.Helper()
	got, err := s.ExactWindowContext(bg, wholeSpace)
	if err != nil || len(got) != s.Len() {
		t.Fatalf("index of %d points answers the whole space with %d (%v)", s.Len(), len(got), err)
	}
	for _, p := range got {
		if found, err := s.PointQueryContext(bg, p); !found || err != nil {
			t.Fatalf("index of %d points: point query misses %v (%v)", s.Len(), p, err)
		}
	}
	return got
}

// shardZero locates fields of the first shard of a snapshot, by byte offset,
// for the tampering tests: the offsets follow WriteTo here and in core and
// store, one field at a time.
type shardZero struct {
	b, firstNext, firstX, rootRect, leafFirst, leafStarts int
}

func locate(tb testing.TB, snap []byte) shardZero {
	tb.Helper()
	var z shardZero
	i64 := func(at int) int { return int(binary.LittleEndian.Uint64(snap[at:])) }
	z.b = 8 + 8 + 8 + 8       // the magic, the shard count, the stream's length prefix, its magic; B is the first option word
	at := z.b + 3*8 + 1 + 3*8 // three option words, the raw flag, three scalar words
	blocks := i64(at)
	at += 8 // the block count
	for b := range blocks {
		if b == 0 {
			z.firstNext, z.firstX = at+8, at+8+8+1+8
		}
		at += 8 + 8 + 1 + 8 + i64(at+8+8+1)*16 // prev, next, flags, live count, the points
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
		"count-lies":         {{uint64(z.rootRect + 32), word(z.rootRect+32) + 1}}, // the root's point count
		"block-list-loops":   {{uint64(z.firstNext), 0}},                           // block 0 links to itself
		"point-not-finite":   {{uint64(z.firstX), f64(math.Inf(1))}},               // a live point at +Inf
		"root-mbr-too-small": {{uint64(z.rootRect + 16), f64(-1e9)}},               // MaxX below every point: the shard's region too
		"leaf-gap":           {{uint64(z.leafFirst), word(z.leafFirst) + 1}},       // the first leaf names the block after its first: no leaf holds that one
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
// stream that claims more than it holds — blocks of 2^20 points, which
// loads, or a block of more points than B, which is refused — costs no more
// to read than the stream's size.
func TestLoadRefusesTampered(t *testing.T) {
	seeds := loadSeeds(t)
	for _, seedName := range []string{"hilbert-1shard", "z-3shard"} {
		for name, snap := range tamperings(t, seeds[seedName]) {
			_, err := Load(bytes.NewReader(snap))
			if err == nil {
				t.Errorf("%s, %s: Load accepted it", seedName, name)
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
		"capacity-2^20": func(snap []byte) { binary.LittleEndian.PutUint64(snap[z.b:], 1<<20) },
		// The first block claiming 2^40 points: refused before any is read.
		"block-of-2^40": func(snap []byte) { binary.LittleEndian.PutUint64(snap[z.firstNext+8+1:], 1<<40) },
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
		if name == "block-of-2^40" && err == nil {
			t.Errorf("%s: Load accepted it", name)
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
// and both curves. The signed-zero cases hold (−0, y) beside (+0, y) and
// (x, −0) beside (x, +0), which every ranking ties on both coordinates: they
// pin which of such a pair a shard's layout puts first, over one shard and
// over three. The digests are of amd64 builds.
func TestBuildSnapshotGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are of amd64 builds")
	}
	skewed := dataset.Generate(dataset.Skewed, 40_000, 7)
	skewed = append(skewed, skewed[:2000]...)
	signed := indextest.SignedZeroCopies(3000, 5)
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		shards int
		index  core.Options
		want   string
	}{
		{"skewed", skewed, 2, core.Options{Epochs: 2, Seed: 1, Curve: sfc.Hilbert}, "385c89814d1187211b0952d786146bd2252c72b5f895e3ce4dcd5767305fd896"},
		{"skewed", skewed, 1, core.Options{Epochs: 2, Seed: 1, Curve: sfc.Z}, "fba395710e2ebce28522df7c2c8327c991d1e826fb0c656d61337b88a20c7ca7"},
		{"signed-zeros", signed, 1, core.Options{BlockCapacity: 20, PartitionThreshold: 300}, "c490aa1e9458f10b882ab92996989d7ba8173b08f7b56b66dcd857c1c2b354b7"},
		{"signed-zeros", signed, 3, core.Options{BlockCapacity: 20, PartitionThreshold: 300}, "49c120b61afbb717141f5326b5f45dcc5c648c95a30792d3b8181a509c504db3"},
	} {
		s := New(c.pts, Options{Shards: c.shards, Index: c.index})
		if got := fmt.Sprintf("%x", sha256.Sum256(snapshotSansBuildTimes(t, s))); got != c.want {
			t.Errorf("%s, %d shards, %v curve: snapshot sha256 %s, want %s", c.name, c.shards, c.index.Curve, got, c.want)
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
	const want = "66a24aa31284970478c7811871fdeafcd3d6a7454e978210e311f07aa47b3316"
	if got := fmt.Sprintf("%x", sha256.Sum256(snapshotSansBuildTimes(t, s))); got != want {
		t.Errorf("rebuilt snapshot sha256 %s, want %s", got, want)
	}
}

// BenchmarkSnapshot times a snapshot of embed-read's engine — 200k skewed
// points on two shards — after half as many jittered inserts again:
// writing it (write) and loading it back (load), each with the stream's
// size. It uses exported names only, so it runs unchanged on earlier
// commits.
func BenchmarkSnapshot(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 200_000, 1)
	s := New(pts, Options{Shards: 2})
	for _, p := range workload.InsertPoints(pts, 100_000, 2) {
		if err := s.InsertContext(bg, p); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := s.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		var buf bytes.Buffer
		buf.Grow(snap.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			buf.Reset()
			if _, err := s.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snap.Len()), "bytes")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var err error
			if newSink, err = Load(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snap.Len()), "bytes")
	})
}
