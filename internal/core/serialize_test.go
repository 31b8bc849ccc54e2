package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
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
		"raw grid":   {BlockCapacity: 20, PartitionThreshold: 500, LearningRate: 0.1, Epochs: 10, Seed: 1, RawGridLeafOrder: true},
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
		lo1, hi1, _ := orig.cellBlocks(l1, orig.leafCell(l1, p))
		lo2, hi2, _ := loaded.cellBlocks(l2, loaded.leafCell(l2, p))
		if l1.firstBlock != l2.firstBlock || lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("%s: %v descends to the leaf at block %d, range [%d, %d], before, and to the leaf at block %d, range [%d, %d], after the round trip",
				stage, p, l1.firstBlock, lo1, hi1, l2.firstBlock, lo2, hi2)
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
	// Exact queries still exact.
	var live []geom.Point
	for _, p := range append(pts, ins...) {
		if !gone[p] {
			live = append(live, p)
		}
	}
	oracle := index.NewLinear(live)
	for _, w := range workload.Windows(live, 20, 0.02, 1, 37) {
		got := loaded.ExactWindow(w)
		want := oracle.WindowQuery(w)
		if len(got) != len(want) || index.Recall(got, want) != 1 {
			t.Fatalf("exact window wrong after round trip: %d vs %d", len(got), len(want))
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

// refuseOldMagic writes an index, puts magic over its own, and checks that
// Load refuses the file with want, in words that mention each of words.
func refuseOldMagic(t *testing.T, magic [8]byte, want error, words ...string) {
	t.Helper()
	idx := New(dataset.Generate(dataset.Uniform, 500, 40), testOptions())
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	copy(data, magic[:])
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, want) {
		t.Fatalf("Load of a %s file: %v, want %v", magic[:6], err, want)
	}
	for _, w := range words {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("the refusal %q does not mention %q", err, w)
		}
	}
}

// TestLoadRefusesV1: the format before compiled kernels is recognised and
// refused with an error that says why, not mistaken for garbage.
func TestLoadRefusesV1(t *testing.T) {
	refuseOldMagic(t, serialMagicV1, ErrSnapshotV1, "RSMIv1", "error bounds", "predictor", "rebuild")
}

// TestLoadRefusesV2: the format before point spans is recognised and refused
// with an error that says why, not mistaken for garbage.
func TestLoadRefusesV2(t *testing.T) {
	refuseOldMagic(t, serialMagicV2, ErrSnapshotV2, "RSMIv2", "spans", "rebuild")
}

// TestLoadRefusesV3: the format whose internal nodes are trained models is
// recognised and refused with an error that says why, not mistaken for
// garbage.
func TestLoadRefusesV3(t *testing.T) {
	refuseOldMagic(t, serialMagicV3, ErrSnapshotV3, "RSMIv3", "cuts", "rebuild")
}

// TestLoadRefusesV4: the format whose leaves are trained models is
// recognised and refused with an error that says why, not mistaken for
// garbage.
func TestLoadRefusesV4(t *testing.T) {
	refuseOldMagic(t, serialMagicV4, ErrSnapshotV4, "RSMIv4", "leaves", "cells", "rebuild")
}

// TestLoadChecksDelta: Δ sizes every kNN search, so a snapshot whose Δ word
// is neither the 0.01 this version runs nor 0 (unset, which meant 0.01) is
// refused with an error that names Δ. The loss and γ words shaped only the
// build, whose PMFs are stored whole: any value loads, and answers as the
// index that was saved.
func TestLoadChecksDelta(t *testing.T) {
	idx := New(dataset.Generate(dataset.Skewed, 500, 41), testOptions())
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The option words after the magic: B, N, curve, lr, epochs, loss, γ, Δ.
	const lossWord, gammaWord, deltaWord = 8 + 5*8, 8 + 6*8, 8 + 7*8
	for name, c := range map[string]struct {
		at   int
		word uint64
		ok   bool
	}{
		"Δ 0.02":  {deltaWord, math.Float64bits(0.02), false},
		"Δ NaN":   {deltaWord, math.Float64bits(math.NaN()), false},
		"Δ unset": {deltaWord, 0, true},
		"γ 4":     {gammaWord, 4, true},
		"loss":    {lossWord, math.Float64bits(1e-4), true},
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(raw[c.at:], c.word)
		loaded, err := Load(bytes.NewReader(raw))
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "Δ") {
				t.Errorf("%s: Load returned %v, want a refusal naming Δ", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range workload.KNNPoints(idx.AllPoints(), 20, 42) {
			if got, want := loaded.KNN(q, 10), idx.KNN(q, 10); !slices.Equal(got, want) {
				t.Fatalf("%s: KNN(%v) = %v, the saved index answers %v", name, q, got, want)
			}
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
		"internal":    func(root *node) { root.children = root.children[:1] },
		"leaf blocks": func(root *node) { firstLeaf(root).numBlocks-- },
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

// TestLoadRefusesBadCuts: descent counts the cuts at or before a point, and
// a column's count indexes its row cuts and the grid: a node with more cuts
// than its grid has room for would index past them, and a cut that is not
// finite orders no point. The loader refuses both, in words that name the
// cuts.
func TestLoadRefusesBadCuts(t *testing.T) {
	idx := New(dataset.Generate(dataset.Uniform, 3000, 41), testOptions())
	if idx.root.leaf || idx.side != 4 {
		t.Fatalf("want an internal root over a 4 × 4 grid, got leaf %v, side %d", idx.root.leaf, idx.side)
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
// snapshot. Every walk steps through base blocks by index and trusts Next
// inside a chain, and replicas load snapshots off the wire: a list with a
// cycle (which used to load, and hang the first window query), a gap, a dead
// end, or a block on the wrong side of the base range must be refused.
func TestLoadRejectsCyclicBlockList(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	for i := 0; i < 6*idx.opts.BlockCapacity; i++ { // grow a chain several blocks long
		idx.Insert(geom.Pt(pts[0].X+1e-9*float64(i+1), pts[0].Y))
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
	// A block record is prev, next (int64 each), flags (1 byte), slot count
	// (int64), then 17 bytes per slot, after a 16-byte store header.
	const nextField, flagsField = 8, 16
	offsetOf := func(id int) int {
		at := storeAt + 16
		for b := 0; b < id; b++ {
			at += 25 + 17*idx.store.Peek(b).Len()
		}
		return at
	}
	overflow := idx.baseBlocks // the first overflow block; its chain goes on
	if next := idx.store.Peek(overflow).Next; next < idx.baseBlocks {
		t.Fatalf("overflow block %d is followed by %d, not by a longer chain", overflow, next)
	}
	for name, tamper := range map[string]func(raw []byte){
		"base block links backwards": func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[offsetOf(10)+nextField:], 5)
		},
		"base block skips its successor": func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[offsetOf(10)+nextField:], 12)
		},
		"list ends early": func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[offsetOf(10)+nextField:], ^uint64(0))
		},
		"link leaves the store": func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[offsetOf(10)+nextField:], uint64(idx.store.NumBlocks()))
		},
		"overflow block links to itself": func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[offsetOf(overflow)+nextField:], uint64(overflow))
		},
		"overflow block not marked inserted": func(raw []byte) { raw[offsetOf(overflow)+flagsField] = 0 },
		"base block marked inserted":         func(raw []byte) { raw[offsetOf(10)+flagsField] = 1 },
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
