package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index/indextest"
	"rsmi/internal/sfc"
)

// layoutDigest returns the sha256 of everything that fixes where an index
// keeps its points. The tree comes first, depth first: each node's kind and
// order, its point and overflow counts, MBR and cuts, and a leaf's fill,
// prefix counts and block list. Then every block: its flags, links, live
// points, cached MBR and chain head. Last, the empty set, Len, the insert
// count and the repack count. No timing and no heap layout goes in, so two
// indexes that lay out the same blocks the same way hash alike whatever code
// built them: a change meant to move no block shows the digest unchanged.
func layoutDigest(t *RSMI) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	putPoints := func(pts []geom.Point) {
		put(uint64(len(pts)))
		for _, p := range pts {
			put(math.Float64bits(p.X), math.Float64bits(p.Y))
		}
	}
	putRect := func(r geom.Rect) {
		put(math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY))
	}
	var walk func(n *node)
	walk = func(n *node) {
		switch {
		case n == nil:
			put(0)
			return
		case n.leaf:
			put(1)
		default:
			put(2)
		}
		put(uint64(n.order), uint64(n.points), uint64(n.overflow))
		putRect(n.mbr)
		putPoints(n.cols)
		if n.leaf {
			putPoints(n.rowCuts)
			put(uint64(n.fill), uint64(len(n.starts)))
			for _, s := range n.starts {
				put(uint64(s))
			}
			put(uint64(len(n.blocks)))
			for _, id := range n.blocks {
				put(uint64(id))
			}
			return
		}
		for _, r := range n.rows {
			putPoints(r)
		}
		put(uint64(len(n.children)))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	put(uint64(t.store.NumBlocks()))
	var empty []uint64
	for id := range t.store.NumBlocks() {
		b := t.store.Peek(id)
		flags := uint64(0)
		if b.Inserted {
			flags = 1
		}
		put(flags, uint64(b.Prev), uint64(b.Next))
		putPoints(b.Slots())
		putRect(t.blockMBR[id])
		put(uint64(t.chainHeads[id]))
		if w := id >> 6; w < len(t.empty.words) && t.empty.words[w]&(1<<(id&63)) != 0 {
			empty = append(empty, uint64(id))
		}
	}
	put(uint64(len(empty)))
	put(empty...)
	put(uint64(t.Len()), uint64(t.inserted), uint64(t.repacks))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLayoutDigest pins layoutDigest for builds grown by inserts, deletes
// and the repacks they set off: a change meant to leave every block where it
// was must leave these digests as they are, and one that moves blocks says
// which. The cases reach internal nodes of orders 1 to 3 over both curves,
// trees four deep, leaves of orders 1 to 3, copies of one point, overflow
// chains, emptied overflow blocks and repacked leaves, and a loaded copy
// that grows on as its original does. signed-zeros holds (−0, y) beside
// (+0, y) and (x, −0) beside (x, +0): pairs a ranking ties on both
// coordinates but whose bits the layout keeps, so it pins how full ties
// are broken.
// The digests are of amd64 builds, as the shard package's snapshot goldens.
func TestLayoutDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are of amd64 builds")
	}
	for _, c := range []struct {
		name string
		kind dataset.Kind
		n    int
		opts Options
		want string
		// gen, when set, makes the points in place of dataset.Generate.
		gen func(n int, seed int64) []geom.Point
	}{
		{"osm-small-leaves", dataset.OSMLike, 6000, testOptions(), "3cd6f9b50cbde7105bc0d348bce605afc51e54f69756cfde31cb0d96f73f1fcf", nil},
		{"skewed-defaults", dataset.Skewed, 24000, Options{}, "e6063e6a0a299e40692e4a74de255e6cccff33ff818c55547fbd97288c9ea2f2", nil},
		{"skewed-deep", dataset.Skewed, 3000, Options{BlockCapacity: 20, PartitionThreshold: 100}, "10a24a7d7b834448e6edd5660563181587cb7ba295356e8ae8b636b8da51ac87", nil},
		{"uniform-z-copies", dataset.Uniform, 4000, Options{BlockCapacity: 30, PartitionThreshold: 900, Curve: sfc.Z}, "47c9809ddcf4a8a96ae094a588eaef54f475d7db5814bd23d7f3f8b4b28634dd", nil},
		{"signed-zeros", 0, 3000, Options{BlockCapacity: 20, PartitionThreshold: 300}, "024e3dc0bf53fba1fb1851323cd0f2da2c078de79601e40a56d63b1872958375", indextest.SignedZeroCopies},
	} {
		t.Run(c.name, func(t *testing.T) {
			gen := func(n int, seed int64) []geom.Point { return dataset.Generate(c.kind, n, seed) }
			if c.gen != nil {
				gen = c.gen
			}
			pts := gen(c.n, 5)
			pts = append(pts, pts[:c.n/20]...)
			idx := New(pts, c.opts)
			ins := jittered(pts, c.n/2, 6)
			grow := func(x *RSMI, from, to int) {
				for i := from; i < to; i++ {
					x.Insert(ins[i])
					if i%3 == 0 && !x.Delete(ins[i/2]) {
						t.Fatalf("delete of inserted %v found nothing", ins[i/2])
					}
					if i%7 == 0 && !x.Delete(pts[i]) {
						t.Fatalf("delete of built %v found nothing", pts[i])
					}
				}
			}
			grow(idx, 0, len(ins)/2)
			loaded := roundTrip(t, idx)
			if a, b := layoutDigest(idx), layoutDigest(loaded); a != b {
				t.Fatalf("loaded copy digest %s, saved index %s", b, a)
			}
			grow(idx, len(ins)/2, len(ins))
			grow(loaded, len(ins)/2, len(ins))
			if idx.repacks == 0 || idx.empty.n == 0 {
				t.Fatalf("the history set off %d repacks and left %d empty overflow blocks; want some of each", idx.repacks, idx.empty.n)
			}
			got := layoutDigest(idx)
			if l := layoutDigest(loaded); l != got {
				t.Errorf("loaded copy grew to digest %s, its original to %s", l, got)
			}
			if got != c.want {
				t.Errorf("layout digest %s, want %s", got, c.want)
			}
		})
	}
}
