package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
	"rsmi/internal/workload"
)

func roundTrip(t *testing.T, idx *RSMI) *RSMI {
	t.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

func TestSerializeRoundTripQueriesIdentical(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 4000, 31)
	orig := New(pts, testOptions())
	assertRoundTripIdentical(t, "built", orig, pts)

	// The same after updates: overflow chains, tombstones, reused slots.
	live := append([]geom.Point(nil), pts...)
	for _, p := range workload.InsertPoints(pts, 900, 32) {
		orig.Insert(p)
		live = append(live, p)
	}
	for _, p := range workload.DeleteSample(pts, 500, 33) {
		orig.Delete(p)
	}
	assertRoundTripIdentical(t, "updated", orig, live)
}

// TestBuildDeterministic: two builds from the same points and options write
// byte-identical snapshots — blocks, MBRs, cuts, cell counts — so nothing in the
// build (the ordering sorts, above all) lets anything but its input decide the
// index. The one wall-clock field of a snapshot is zeroed first.
func TestBuildDeterministic(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 6000, 35)
	pts = append(pts, pts[:300]...) // duplicate points: ties in every sort
	for name, opts := range map[string]Options{
		"rank space": testOptions(),
		"raw grid":   {BlockCapacity: 20, PartitionThreshold: 500, Epochs: 10, Seed: 1, RawGridLeafOrder: true},
	} {
		var snaps [2]bytes.Buffer
		for i := range snaps {
			idx := New(pts, opts)
			idx.buildTime = 0
			if _, err := idx.WriteTo(&snaps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
			t.Errorf("%s: two builds of the same input wrote different snapshots (%d and %d bytes)",
				name, snaps[0].Len(), snaps[1].Len())
		}
	}
}

// assertRoundTripIdentical saves and reloads orig and demands the same index
// back: the same statistics, the same cells (the cuts and counts are
// stored as they are) and the same answers at the same block accesses.
// probes are points to query at; deleted ones among them are fine.
func assertRoundTripIdentical(t *testing.T, stage string, orig *RSMI, probes []geom.Point) {
	t.Helper()
	loaded := roundTrip(t, orig)
	if loaded.Len() != orig.Len() {
		t.Fatalf("%s: Len: %d vs %d", stage, loaded.Len(), orig.Len())
	}
	so, sl := orig.Stats(), loaded.Stats()
	so.BuildTime, sl.BuildTime = 0, 0
	if so != sl {
		t.Fatalf("%s: Stats diverge:\n%+v\n%+v", stage, so, sl)
	}
	// Every node on the way down finds the same cell: same leaf, same
	// blocks. Probe inside and well outside the data.
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 10000; i++ {
		p := geom.Pt(3*rng.Float64()-1, 3*rng.Float64()-1)
		if i%2 == 0 {
			p = probes[rng.Intn(len(probes))]
		}
		l1, l2 := orig.descend(p), loaded.descend(p)
		lo1, hi1, _ := orig.cellBlocks(l1, orig.cell(l1, p))
		lo2, hi2, _ := loaded.cellBlocks(l2, loaded.cell(l2, p))
		if !slices.Equal(l1.blocks, l2.blocks) || lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("%s: %v descends to the leaf of blocks %v, positions [%d, %d], before, and to the leaf of blocks %v, positions [%d, %d], after the round trip",
				stage, p, l1.blocks, lo1, hi1, l2.blocks, lo2, hi2)
		}
	}
	// accesses runs fn on both and demands equal block-access counts.
	accesses := func(what string, fn func(idx *RSMI)) {
		t.Helper()
		a0, b0 := orig.Accesses(), loaded.Accesses()
		fn(orig)
		fn(loaded)
		if a, b := orig.Accesses()-a0, loaded.Accesses()-b0; a != b {
			t.Fatalf("%s: %s read %d blocks before, %d after the round trip", stage, what, a, b)
		}
	}
	// Every point query answer identical (and exact for live points).
	for _, p := range probes {
		var got [2]bool
		i := 0
		accesses("point query", func(idx *RSMI) { got[i] = idx.PointQuery(p); i++ })
		if got[0] != got[1] {
			t.Fatalf("%s: PointQuery(%v): %v before, %v after the round trip", stage, p, got[0], got[1])
		}
	}
	// Window and kNN answers bit-identical.
	for _, w := range workload.Windows(probes, 40, 0.01, 1, 32) {
		var got [2][]geom.Point
		i := 0
		accesses("window query", func(idx *RSMI) { got[i] = idx.WindowQuery(w); i++ })
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("%s: window answers diverge: %d vs %d rows", stage, len(got[0]), len(got[1]))
		}
	}
	for _, q := range workload.KNNPoints(probes, 30, 33) {
		var got [2][]geom.Point
		i := 0
		accesses("kNN query", func(idx *RSMI) { got[i] = idx.KNN(q, 10); i++ })
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("%s: kNN answers diverge at %v", stage, q)
		}
	}
}

func TestSerializeAfterUpdates(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2000, 34)
	idx := New(pts, testOptions())
	ins := workload.InsertPoints(pts, 600, 35)
	for _, p := range ins {
		idx.Insert(p)
	}
	del := workload.DeleteSample(pts, 300, 36)
	gone := map[geom.Point]bool{}
	for _, p := range del {
		idx.Delete(p)
		gone[p] = true
	}
	loaded := roundTrip(t, idx)
	if loaded.Len() != idx.Len() {
		t.Fatalf("Len after updates: %d vs %d", loaded.Len(), idx.Len())
	}
	for _, p := range ins {
		if !loaded.PointQuery(p) {
			t.Fatalf("inserted point %v lost through serialisation", p)
		}
	}
	for _, p := range del {
		if loaded.PointQuery(p) {
			t.Fatalf("deleted point %v resurrected by serialisation", p)
		}
	}
	// Windows still exact.
	var live []geom.Point
	for _, p := range append(pts, ins...) {
		if !gone[p] {
			live = append(live, p)
		}
	}
	oracle := index.NewLinear(live)
	for _, w := range workload.Windows(live, 20, 0.02, 1, 37) {
		got := loaded.WindowQuery(w)
		want := oracle.WindowQuery(w)
		if len(got) != len(want) || index.Recall(got, want) != 1 {
			t.Fatalf("window wrong after round trip: %d vs %d", len(got), len(want))
		}
	}
	// Loaded index remains updatable.
	p := geom.Pt(0.42, 0.1337)
	loaded.Insert(p)
	if !loaded.PointQuery(p) {
		t.Fatal("loaded index rejected insert")
	}
}

func TestSerializeEmptyAndSingle(t *testing.T) {
	for _, n := range []int{0, 1} {
		pts := dataset.Generate(dataset.Uniform, n, 38)
		idx := New(pts, testOptions())
		loaded := roundTrip(t, idx)
		if loaded.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, loaded.Len())
		}
		if n == 1 && !loaded.PointQuery(pts[0]) {
			t.Fatal("single point lost")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("this is not an index file at all"),
		"truncated": append(append([]byte{}, serialMagic[:]...), 1, 2, 3),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(data)); err == nil {
				t.Error("Load accepted garbage")
			}
		})
	}
}

// oldStream returns the RSMIv<v> index stream held in the committed
// FuzzLoadSharded seed rsmiv<v>-1shard, the last stream that format wrote.
// The corpus file quotes a sharded file, whose one shard stream runs from
// the stream's magic to the end.
func oldStream(t *testing.T, v int) []byte {
	t.Helper()
	name := fmt.Sprintf("RSMIv%d", v)
	raw, err := os.ReadFile(filepath.Join("..", "shard", "testdata", "fuzz", "FuzzLoadSharded", fmt.Sprintf("rsmiv%d-1shard", v)))
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	file, err := strconv.Unquote(body)
	at := strings.Index(file, name+"\x00")
	if err != nil || at < 0 {
		t.Fatalf("%s: no %s stream in the corpus file (%v)", name, name, err)
	}
	return []byte(file[at:])
}

// rewrittenStream returns a stream of this version with its magic rewritten
// to name.
func rewrittenStream(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := New(dataset.Generate(dataset.Uniform, 500, 40), testOptions()).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var magic [8]byte
	copy(magic[:], name)
	return append(magic[:], buf.Bytes()[8:]...)
}

// refuseStream checks that Load refuses stream with ErrSnapshotVersion, in
// words that name the version found and say what to do.
func refuseStream(t *testing.T, name string, stream []byte) {
	t.Helper()
	_, err := Load(bytes.NewReader(stream))
	if !errors.Is(err, ErrSnapshotVersion) || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "rebuild") {
		t.Errorf("Load of an %s stream: %v, want ErrSnapshotVersion naming %s", name, err, name)
	}
}

// TestLoadRefusesV1: the format before compiled kernels is refused with
// ErrSnapshotVersion, not mistaken for garbage. No RSMIv1 seed is
// committed, so the stream is this version's with its magic rewritten.
func TestLoadRefusesV1(t *testing.T) {
	refuseStream(t, "RSMIv1", rewrittenStream(t, "RSMIv1"))
}

// TestLoadRefusesV2: the format before point spans is refused with
// ErrSnapshotVersion, not mistaken for garbage.
func TestLoadRefusesV2(t *testing.T) { refuseStream(t, "RSMIv2", oldStream(t, 2)) }

// TestLoadRefusesV3: the format whose internal nodes are trained models is
// refused with ErrSnapshotVersion, not mistaken for garbage.
func TestLoadRefusesV3(t *testing.T) { refuseStream(t, "RSMIv3", oldStream(t, 3)) }

// TestLoadRefusesV4: the format whose leaves are trained models is refused
// with ErrSnapshotVersion, not mistaken for garbage.
func TestLoadRefusesV4(t *testing.T) { refuseStream(t, "RSMIv4", oldStream(t, 4)) }

// TestLoadRefusesV5: the format whose leaves own ranges of block ids is
// refused with ErrSnapshotVersion, not mistaken for garbage.
func TestLoadRefusesV5(t *testing.T) { refuseStream(t, "RSMIv5", oldStream(t, 5)) }

// TestLoadRefusesV6: the format that held the kNN estimator's PMFs is
// refused with ErrSnapshotVersion, not mistaken for garbage.
func TestLoadRefusesV6(t *testing.T) { refuseStream(t, "RSMIv6", oldStream(t, 6)) }

// TestLoadRefusesOldVersions: a stream of any other format version than
// RSMIv9 is refused with ErrSnapshotVersion. RSMIv1-v6 have tests of their
// own; this one covers the formats since — RSMIv7 and RSMIv8, the last
// streams those formats wrote — and a stream claiming a newer version. A
// format bump adds the last seed the old format wrote here.
func TestLoadRefusesOldVersions(t *testing.T) {
	refuseStream(t, "RSMIv7", oldStream(t, 7))
	refuseStream(t, "RSMIv8", oldStream(t, 8))
	refuseStream(t, "RSMIv10", rewrittenStream(t, "RSMIv10"))
}

// TestRewrittenBlockCapacity: B is stored once, in the option block, and
// every loaded block takes its capacity from it. A stream of 2-point blocks
// whose B word is rewritten to 100 loads as an index of 100-point blocks
// holding what was written — the index is one leaf, so B sizes no grid —
// and a burst of inserts that repacks the leaf neither panics nor loses a
// point: window and point answers stay a linear scan's. It uses exported
// names only, so it runs on earlier versions too.
func TestRewrittenBlockCapacity(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 3000, 45)
	var buf bytes.Buffer
	if _, err := New(pts, Options{BlockCapacity: 2}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if b := binary.LittleEndian.Uint64(raw[8:]); b != 2 {
		t.Fatalf("the word after the magic is %d, not B = 2", b)
	}
	binary.LittleEndian.PutUint64(raw[8:], 100)
	idx, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	live := slices.Clone(pts)
	for i := range 400 {
		p := geom.Pt(pts[0].X+float64(i+1)*1e-9, pts[0].Y)
		idx.Insert(p)
		live = append(live, p)
	}
	if idx.Repacks() == 0 {
		t.Fatal("the burst repacked no leaf")
	}
	for _, p := range live {
		if !idx.PointQuery(p) {
			t.Fatalf("point query misses %v", p)
		}
	}
	oracle := index.NewLinear(live)
	for _, w := range workload.Windows(live, 50, 0.01, 1, 46) {
		got, want := idx.WindowQuery(w), oracle.WindowQuery(w)
		slices.SortFunc(got, geom.Point.Compare)
		slices.SortFunc(want, geom.Point.Compare)
		if !slices.Equal(got, want) {
			t.Fatalf("window %v: %d points, a linear scan finds %d", w, len(got), len(want))
		}
	}
}

// TestLoadRejectsMismatchedCells: a leaf whose cell counts reach past its
// blocks would index past them, and so would an internal node with fewer
// cells than the index's grid, or a leaf whose counts are not those of a
// 2^k × 2^k grid; the loader must refuse all three.
func TestLoadRejectsMismatchedCells(t *testing.T) {
	opts := testOptions()
	opts.PartitionThreshold = 400
	idx := New(dataset.Generate(dataset.Uniform, 3000, 41), opts)
	for name, tamper := range map[string]func(root *node){
		"internal": func(root *node) { root.children = root.children[:1] },
		"leaf blocks": func(root *node) {
			n := firstLeaf(root)
			n.blocks = n.blocks[:len(n.blocks)-1]
		},
		"leaf cells": func(root *node) {
			n := firstLeaf(root)
			n.starts = n.starts[:len(n.starts)-1]
		},
	} {
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		victim, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		tamper(victim.root)
		buf.Reset()
		if _, err := victim.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted a node whose cells do not match its children or blocks", name)
		}
	}
}

// firstLeaf returns the first leaf under n.
func firstLeaf(n *node) *node {
	for !n.leaf {
		for _, c := range n.children {
			if c != nil {
				n = c
				break
			}
		}
	}
	return n
}

// TestLoadBuildsOnlyTablesInUse: an index makes the curve table of each
// order its nodes use and no other. A stream whose options give §3.2's
// largest grid, 2^10 × 2^10 cells, over a tree that cuts none loads and
// answers without making that grid's table, and reading it allocates no
// more than before nodes recorded their orders, when every index made all
// four leaf tables up front: 297 096 bytes with go1.24 on amd64, without
// the race detector, whose instrumentation allocates besides.
func TestLoadBuildsOnlyTablesInUse(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 3000, 9)
	opts := Options{BlockCapacity: 2, PartitionThreshold: 2 << 20}
	if k := gridOrder(opts); k != maxGridOrder {
		t.Fatalf("the options give grid order %d, want %d", k, maxGridOrder)
	}
	idx := New(pts, opts)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var loaded *RSMI
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, err := Load(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		loaded, least = x, min(least, after.TotalAlloc-before.TotalAlloc)
	}
	for _, p := range pts {
		if !loaded.PointQuery(p) {
			t.Fatalf("loaded index lost %v", p)
		}
	}
	if !raceDetector && runtime.GOARCH == "amd64" && strings.HasPrefix(runtime.Version(), "go1.24") && least > 297_096 {
		t.Errorf("Load allocated %d bytes, more than the 297 096 it took with every leaf table made up front", least)
	}
	for name, x := range map[string]*RSMI{"built": idx, "loaded": loaded, "internal root": roundTrip(t, New(pts, testOptions()))} {
		used := make([]bool, maxGridOrder+1)
		high := 0
		var walk func(n *node)
		walk = func(n *node) {
			if n != nil {
				used[n.order], high = true, max(high, int(n.order))
				for _, c := range n.children {
					walk(c)
				}
			}
		}
		walk(x.root)
		if len(x.curves) != high+1 {
			t.Errorf("%s: %d curve tables for nodes of orders up to %d", name, len(x.curves), high)
		}
		for k, table := range x.curves {
			if (table != nil) != used[k] {
				t.Errorf("%s: order %d has a table %v, a node of that order %v", name, k, table != nil, used[k])
			}
		}
	}
}

// TestLoadRefusesBadCuts: descent counts the cuts at or before a point, and
// a column's count indexes its row cuts and the grid: a node with more cuts
// than its grid has room for would index past them, and a cut that is not
// finite orders no point. The loader refuses both, in words that name the
// cuts.
func TestLoadRefusesBadCuts(t *testing.T) {
	idx := New(dataset.Generate(dataset.Uniform, 3000, 41), testOptions())
	if idx.root.leaf || idx.root.order != 2 {
		t.Fatalf("want an internal root over a 4 × 4 grid, got leaf %v, order %d", idx.root.leaf, idx.root.order)
	}
	for name, tamper := range map[string]func(root *node){
		"column cut NaN": func(root *node) { root.cols[0].X = math.NaN() },
		"row cut +Inf":   func(root *node) { root.rows[1][0].Y = math.Inf(1) },
		"4 column cuts":  func(root *node) { root.cols, root.rows = append(root.cols, root.cols[0]), append(root.rows, nil) },
		"4 row cuts":     func(root *node) { root.rows[0] = append(root.rows[0], root.rows[0][0]) },
		"leaf cut +Inf":  func(root *node) { firstLeaf(root).rowCuts[0].X = math.Inf(1) },
		"leaf cuts out of order": func(root *node) {
			n := firstLeaf(root)
			n.cols[0], n.cols[1] = n.cols[1], n.cols[0]
		},
		"leaf cut too many": func(root *node) {
			n := firstLeaf(root)
			n.cols = append(n.cols, n.cols[len(n.cols)-1])
		},
	} {
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		victim, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		tamper(victim.root)
		buf.Reset()
		if _, err := victim.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "cut") {
			t.Errorf("%s: Load returned %v, want a refusal naming the cuts", name, err)
		}
	}
}

// TestLoadRefusesSpanOutsideLeaf: a cell whose span of blocks reaches past
// its leaf's would send a point query into another leaf's blocks, or past
// the base range; the loader refuses it in words that name the blocks, even
// when every point still lies in its cell's blocks.
func TestLoadRefusesSpanOutsideLeaf(t *testing.T) {
	idx := New(dataset.Generate(dataset.Uniform, 3000, 41), testOptions())
	leaf := idx.descend(idx.AllPoints()[0])
	leaf.starts[len(leaf.starts)-1] += int32(idx.opts.BlockCapacity)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("Load of a cell past its leaf: %v, want a refusal naming the blocks", err)
	}
}

// TestLoadRefusesNaNMBR: an MBR with a NaN coordinate contains no point,
// however far inserts extend it, so an empty index whose root MBR is NaN —
// which no point vouches against at load — would lose every insert; the
// loader refuses it.
func TestLoadRefusesNaNMBR(t *testing.T) {
	idx := New(nil, testOptions())
	idx.root.mbr.MaxY = math.NaN()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Load of a NaN root MBR: %v, want a refusal naming the NaN", err)
	}
}

func TestLoadRejectsCorruptedBody(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1500, 39)
	idx := New(pts, testOptions())
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncations anywhere must error, never panic.
	for _, cut := range []int{10, 50, len(data) / 2, len(data) - 3} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("Load accepted truncation at %d", cut)
		}
	}
}

// TestLoadRejectsCyclicBlockList tampers block links inside a written
// snapshot. Every walk steps through a leaf's base blocks by its list and
// trusts Next inside a chain, and replicas load snapshots off the wire: a
// chain with a cycle (which used to load, and hang the first window query),
// one cut short or running into a base block, a link out of the store or
// back to the wrong block, or a block flagged the wrong way must be refused.
func TestLoadRejectsCyclicBlockList(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	// Inserts spread over the index repack leaves, repacks after deletes
	// leave blocks over, and a chain of two overflow blocks or more grows
	// under one block, filed without the repack it would set off (file).
	withLeftOvers(t, idx, pts)
	var base int
	for i := 0; ; i++ {
		p := geom.Pt(pts[0].X+1e-9*float64(i+1), pts[0].Y)
		idx.file(p)
		leaf := idx.descend(p)
		lo, hi, _ := idx.cellBlocks(leaf, idx.cell(leaf, p))
		if base = idx.home(leaf, lo, hi, p); len(chainOf(idx, base)) >= 3 {
			break
		}
		if i == 1000 {
			t.Fatal("no chain grew three blocks long")
		}
	}
	var snap, blocks bytes.Buffer
	if _, err := idx.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.store.WriteTo(&blocks); err != nil {
		t.Fatal(err)
	}
	storeAt := bytes.Index(snap.Bytes(), blocks.Bytes())
	if storeAt < 0 {
		t.Fatal("block store not found in the snapshot")
	}
	// A block record is prev, next (int64 each), flags (1 byte), live count
	// (int64), then 16 bytes per live point, after the 8-byte block count.
	const prevField, nextField, flagsField = 0, 8, 16
	offsetOf := func(id int) int {
		at := storeAt + 8
		for b := 0; b < id; b++ {
			at += 25 + 16*idx.store.Peek(b).Live()
		}
		return at
	}
	overflow := chainOf(idx, base)[1] // the first overflow block of a chain that goes on
	other := int(firstLeaf(idx.root).blocks[0])
	if other == base {
		other = int(firstLeaf(idx.root).blocks[1])
	}
	put := func(raw []byte, at, v int) { binary.LittleEndian.PutUint64(raw[at:], uint64(v)) }
	for name, tamper := range map[string]func(raw []byte){
		"base block links back":              func(raw []byte) { put(raw, offsetOf(base)+prevField, other) },
		"chain runs into a base block":       func(raw []byte) { put(raw, offsetOf(overflow)+nextField, other) },
		"chain cut short":                    func(raw []byte) { put(raw, offsetOf(overflow)+nextField, store.NilBlock) },
		"link leaves the store":              func(raw []byte) { put(raw, offsetOf(overflow)+nextField, idx.store.NumBlocks()) },
		"overflow block links to itself":     func(raw []byte) { put(raw, offsetOf(overflow)+nextField, overflow) },
		"overflow block links back wrong":    func(raw []byte) { put(raw, offsetOf(overflow)+prevField, other) },
		"left-over block links back":         func(raw []byte) { put(raw, offsetOf(leftOver(idx))+prevField, base) },
		"left-over block links on":           func(raw []byte) { put(raw, offsetOf(leftOver(idx))+nextField, overflow) },
		"overflow block not marked inserted": func(raw []byte) { raw[offsetOf(overflow)+flagsField] = 0 },
		"base block marked inserted":         func(raw []byte) { raw[offsetOf(other)+flagsField] = 1 },
	} {
		raw := append([]byte(nil), snap.Bytes()...)
		tamper(raw)
		if bytes.Equal(raw, snap.Bytes()) {
			t.Fatalf("%s: the tamper changed nothing", name)
		}
		// No query is run on a snapshot that loads: at fault it would not return.
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: snapshot loaded", name)
		}
	}
	if _, err := Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("untampered snapshot refused: %v", err)
	}
}

// withLeftOvers grows idx, built over pts, by half as many jittered points,
// which repacks leaves, deletes a third of pts and repacks every leaf, which
// leaves blocks over.
func withLeftOvers(t *testing.T, idx *RSMI, pts []geom.Point) {
	t.Helper()
	for _, p := range jittered(pts, len(pts)/2, 44) {
		idx.Insert(p)
	}
	for _, p := range pts[:len(pts)/3] {
		idx.Delete(p)
	}
	forLeaves(idx.root, everywhere, idx.repack)
	if idx.repacks <= idx.leaves || leftOver(idx) < 0 {
		t.Fatalf("%d repacks left no block over", idx.repacks)
	}
}

// leftOver returns the lowest id of a block a repack left over — an empty
// overflow block in no chain — or -1 when there is none.
func leftOver(idx *RSMI) int {
	for id := range idx.store.NumBlocks() {
		if b := idx.store.Peek(id); b.Inserted && b.Live() == 0 && b.Prev == store.NilBlock && b.Next == store.NilBlock {
			return id
		}
	}
	return -1
}

// TestLoadRefusesBadBlockLists: a leaf's block list is what every walk
// steps through, so a loaded index must name each block once: a leaf that
// names a block twice, or names an overflow block as a base block, and a
// block no leaf and no chain reaches that is not an empty overflow block —
// one a leaf's list dropped, or a block left over by a repack that holds a
// point or is not flagged as an overflow block — are refused in words that
// say so. The index has repacked leaves and blocks left over.
func TestLoadRefusesBadBlockLists(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	withLeftOvers(t, idx, pts)
	for name, c := range map[string]struct {
		tamper func(t *RSMI)
		words  string
	}{
		"a block named twice": {func(t *RSMI) {
			n := firstLeaf(t.root)
			n.blocks[1] = n.blocks[0]
		}, "named twice"},
		"a block named by two leaves": {func(t *RSMI) {
			first, last := firstLeaf(t.root), t.descend(geom.Pt(1, 1))
			last.blocks[0] = first.blocks[0]
		}, "named twice"},
		"an overflow block named": {func(t *RSMI) {
			for id := range t.store.NumBlocks() {
				if t.store.Peek(id).Inserted {
					firstLeaf(t.root).blocks[0] = int32(id)
					return
				}
			}
		}, "overflow block"},
		"a block dropped from a list": {func(t *RSMI) {
			n := firstLeaf(t.root)
			n.blocks = n.blocks[:len(n.blocks)-1]
			for c := range n.starts {
				n.starts[c] = min(n.starts[c], int32(len(n.blocks)*n.fill))
			}
		}, "no leaf"},
		"a left-over block holding a point": {func(t *RSMI) {
			t.store.Peek(leftOver(t)).Append(t.AllPoints()[0])
		}, "no leaf"},
		"a left-over block flagged as a base block": {func(t *RSMI) {
			t.store.Peek(leftOver(t)).Inserted = false
		}, "no leaf"},
	} {
		victim := roundTrip(t, idx)
		c.tamper(victim)
		var buf bytes.Buffer
		if _, err := victim.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), c.words) {
			t.Errorf("%s: Load returned %v, want a refusal saying %q", name, err, c.words)
		}
	}
}
