// Package extent extends the learned index to spatial objects with non-zero
// extent (rectangles), the future-work direction of the paper's §7: "Our
// learned indices may be applied to spatial objects with non-zero extent
// using query expansion [44, 48], although this impacts query accuracy and
// efficiency."
//
// The technique is the classical point-representation + query-window
// extension of Stefanakis et al. [44] and Zhang et al. [48]: each rectangle
// is indexed by its centre point in an ordinary RSMI, the index remembers
// the largest half-extent seen in each dimension, and every window query is
// expanded by those half-extents before being issued against the centres.
// Every object intersecting the original window has its centre inside the
// expanded window, so the expansion keeps the underlying window query
// exact; a final exact intersection test removes the false candidates.
//
// As §7 predicts, accuracy and efficiency degrade with object size: the
// expansion is governed by the largest object, so one huge rectangle makes
// every query scan more candidates. ExpansionOverhead quantifies this.
package extent

import (
	"math"
	"sort"

	"rsmi/internal/core"
	"rsmi/internal/geom"
)

// RectIndex indexes rectangles with a learned RSMI over their centre points.
type RectIndex struct {
	idx *core.RSMI
	// byCentre maps a centre point to the rectangles sharing it.
	byCentre map[geom.Point][]geom.Rect
	// halfW and halfH are the maximum half-extents over all indexed
	// rectangles; windows expand by these amounts.
	halfW, halfH float64
	n            int
}

// New builds a RectIndex over the rectangles. Degenerate rectangles
// (points) are allowed; empty rectangles are ignored.
func New(rects []geom.Rect, opts core.Options) *RectIndex {
	r := &RectIndex{byCentre: make(map[geom.Point][]geom.Rect, len(rects))}
	var centres []geom.Point
	for _, rc := range rects {
		if rc.IsEmpty() {
			continue
		}
		c := rc.Center()
		if _, dup := r.byCentre[c]; !dup {
			centres = append(centres, c)
		}
		r.byCentre[c] = append(r.byCentre[c], rc)
		r.grow(rc)
		r.n++
	}
	r.idx = core.New(centres, opts)
	return r
}

// grow updates the maximum half-extents.
func (r *RectIndex) grow(rc geom.Rect) {
	if hw := rc.Width() / 2; hw > r.halfW {
		r.halfW = hw
	}
	if hh := rc.Height() / 2; hh > r.halfH {
		r.halfH = hh
	}
}

// Len returns the number of indexed rectangles.
func (r *RectIndex) Len() int { return r.n }

// expand returns q grown by the maximum half-extents: the query-window
// extension of [44, 48].
func (r *RectIndex) expand(q geom.Rect) geom.Rect {
	return geom.Rect{
		MinX: q.MinX - r.halfW, MinY: q.MinY - r.halfH,
		MaxX: q.MaxX + r.halfW, MaxY: q.MaxY + r.halfH,
	}
}

// ExactWindow returns exactly the indexed rectangles intersecting q, by the
// RSMI's window query over the expanded window.
func (r *RectIndex) ExactWindow(q geom.Rect) []geom.Rect {
	return r.filter(r.idx.WindowQuery(r.expand(q)), q)
}

// filter maps candidate centres to their rectangles and keeps intersecting
// ones.
func (r *RectIndex) filter(centres []geom.Point, q geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, c := range centres {
		for _, rc := range r.byCentre[c] {
			if rc.Intersects(q) {
				out = append(out, rc)
			}
		}
	}
	return out
}

// StabQuery returns the rectangles containing the point p (a window query
// with a degenerate window).
func (r *RectIndex) StabQuery(p geom.Point) []geom.Rect {
	return r.ExactWindow(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// ExactKNN returns exactly the k rectangles with smallest MINDIST to q.
func (r *RectIndex) ExactKNN(q geom.Point, k int) []geom.Rect {
	if k <= 0 || r.n == 0 {
		return nil
	}
	// Exact centre-kNN with a safety margin, then verified by distance: a
	// rectangle's MINDIST lower-bounds its centre distance minus the max
	// half-diagonal, so widening the centre set until the bound clears the
	// current k-th candidate makes the ranking exact.
	over := 3*k + 8
	for {
		if over > r.idx.Len() {
			over = r.idx.Len()
		}
		centres := r.idx.KNN(q, over)
		out := r.rankByMinDist(centres, q, k)
		if over == r.idx.Len() {
			return out
		}
		if len(out) == k {
			kth := out[k-1].MinDist(q)
			// Distance to the farthest centre examined, minus the largest
			// half-diagonal, lower-bounds the MINDIST of any unexamined
			// rectangle.
			far := q.Dist(centres[len(centres)-1])
			halfDiag := math.Hypot(r.halfW, r.halfH)
			if far-halfDiag >= kth {
				return out
			}
		}
		over *= 2
	}
}

// rankByMinDist expands centres to rectangles and returns the k nearest by
// MINDIST, ties broken deterministically.
func (r *RectIndex) rankByMinDist(centres []geom.Point, q geom.Point, k int) []geom.Rect {
	var cands []geom.Rect
	for _, c := range centres {
		cands = append(cands, r.byCentre[c]...)
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := cands[i].MinDist2(q), cands[j].MinDist2(q)
		if di != dj {
			return di < dj
		}
		return lessRect(cands[i], cands[j])
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// Insert adds a rectangle. Growing half-extents only widens future query
// expansions, so existing guarantees are preserved.
func (r *RectIndex) Insert(rc geom.Rect) {
	if rc.IsEmpty() {
		return
	}
	c := rc.Center()
	if _, dup := r.byCentre[c]; !dup {
		r.idx.Insert(c)
	}
	r.byCentre[c] = append(r.byCentre[c], rc)
	r.grow(rc)
	r.n++
}

// Delete removes one rectangle equal to rc, reporting whether it was found.
// The maximum half-extents are not shrunk (conservative, stays correct).
func (r *RectIndex) Delete(rc geom.Rect) bool {
	c := rc.Center()
	list := r.byCentre[c]
	for i, got := range list {
		if got == rc {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(r.byCentre, c)
				r.idx.Delete(c)
			} else {
				r.byCentre[c] = list
			}
			r.n--
			return true
		}
	}
	return false
}

// ExpansionOverhead reports the query-expansion cost factor: how much a
// window of the given dimensions grows, as the ratio of expanded area to
// original area. §7's accuracy/efficiency caveat in one number.
func (r *RectIndex) ExpansionOverhead(width, height float64) float64 {
	if width <= 0 || height <= 0 {
		return 1
	}
	return ((width + 2*r.halfW) * (height + 2*r.halfH)) / (width * height)
}

func lessRect(a, b geom.Rect) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	if a.MaxX != b.MaxX {
		return a.MaxX < b.MaxX
	}
	return a.MaxY < b.MaxY
}
