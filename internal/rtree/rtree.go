// Package rtree is the shared R-tree engine behind the two R-tree baselines
// of §6.1: the revised R*-tree (internal/rstar) and the rank-space
// Hilbert-packed R-tree HRR (internal/hrr). It provides the node structure,
// exact window queries, the best-first kNN algorithm of Roussopoulos et
// al. [40], deletion with tree condensation, and insertion parameterised by
// a ChooseSubtree/Split policy so the variants differ only in their
// policies and construction.
//
// Every node visited during a query counts as one block access, matching the
// paper's cost model where inner tree nodes are pages too.
package rtree

import (
	"sync/atomic"

	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// DefaultFanout is the paper's node capacity of 100 entries (§6.1: internal
// nodes store up to 100 MBRs, leaves up to 100 points).
const DefaultFanout = 100

// nodeHeaderBytes approximates per-node page overhead.
const nodeHeaderBytes = 16

// entryBytes is the size of one node entry: an MBR (4 float64) plus a child
// pointer or point payload.
const entryBytes = 40

// Node is an R-tree node: a leaf holds points, an internal node holds child
// nodes. MBRs are maintained on every structural change.
type Node struct {
	MBR      geom.Rect
	Leaf     bool
	Points   []geom.Point
	Children []*Node
	parent   *Node
}

// Policy supplies the variant-specific insertion behaviour.
type Policy interface {
	// ChooseSubtree picks the child of n to descend into for inserting r.
	ChooseSubtree(n *Node, p geom.Point) *Node
	// SplitLeaf distributes the points of an overflowing leaf into two
	// groups.
	SplitLeaf(pts []geom.Point) (a, b []geom.Point)
	// SplitInternal distributes the children of an overflowing internal
	// node into two groups.
	SplitInternal(ch []*Node) (a, b []*Node)
}

// Reinserter is an optional Policy extension implementing R*-style forced
// reinsertion: on the first leaf overflow of an insertion, PickReinsert
// returns the entries to remove and re-insert instead of splitting. A nil
// return falls through to a split.
type Reinserter interface {
	PickReinsert(leaf *Node) []geom.Point
}

// Tree is an R-tree with pluggable insertion policy.
type Tree struct {
	root   *Node
	fanout int
	size   int
	nodes  int
	height int
	policy Policy
	// accesses is atomic: the baseline engines allow concurrent readers
	// (RWMutex read locks), and every query counts node visits.
	accesses   atomic.Int64
	inReinsert bool // latch: forced reinsertion happens once per insertion
}

// New returns an empty tree using the policy. Fanout 0 selects
// DefaultFanout.
func New(policy Policy, fanout int) *Tree {
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 4 {
		fanout = 4
	}
	return &Tree{
		root:   &Node{Leaf: true, MBR: geom.EmptyRect()},
		fanout: fanout,
		nodes:  1,
		height: 1,
		policy: policy,
	}
}

// BulkLeaves builds a tree bottom-up from pre-packed leaves: leaves[i] holds
// the points of the i-th leaf page in the desired order (e.g. rank-space
// Hilbert order for HRR). Upper levels pack every `fanout` nodes.
func BulkLeaves(policy Policy, fanout int, leaves [][]geom.Point) *Tree {
	t := New(policy, fanout)
	if len(leaves) == 0 {
		return t
	}
	level := make([]*Node, 0, len(leaves))
	t.nodes = 0
	t.size = 0
	for _, pts := range leaves {
		n := &Node{
			Leaf:   true,
			Points: append([]geom.Point(nil), pts...),
			MBR:    geom.BoundingRect(pts),
		}
		t.size += len(pts)
		t.nodes++
		level = append(level, n)
	}
	t.height = 1
	for len(level) > 1 {
		var up []*Node
		for i := 0; i < len(level); i += t.fanout {
			j := i + t.fanout
			if j > len(level) {
				j = len(level)
			}
			parent := &Node{MBR: geom.EmptyRect()}
			for _, c := range level[i:j] {
				c.parent = parent
				parent.Children = append(parent.Children, c)
				parent.MBR = parent.MBR.Union(c.MBR)
			}
			t.nodes++
			up = append(up, parent)
		}
		level = up
		t.height++
	}
	t.root = level[0]
	return t
}

// Root returns the root node (read-only use by policies and tests).
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Nodes returns the number of pages.
func (t *Tree) Nodes() int { return t.nodes }

// Leaves returns the number of leaf pages.
func (t *Tree) Leaves() int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			count++
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	return count
}

// SizeBytes reports the fixed-page storage footprint.
func (t *Tree) SizeBytes() int64 {
	return int64(t.nodes) * int64(nodeHeaderBytes+t.fanout*entryBytes)
}

// Accesses returns node accesses since the last reset.
func (t *Tree) Accesses() int64 { return t.accesses.Load() }

// ResetAccesses zeroes the access counter.
func (t *Tree) ResetAccesses() { t.accesses.Store(0) }

// visit counts one node access.
func (t *Tree) visit(*Node) { t.accesses.Add(1) }

// PointQuery reports whether a point with exactly q's coordinates is stored.
func (t *Tree) PointQuery(q geom.Point) bool {
	return t.findLeaf(t.root, q) != nil
}

// findLeaf returns the leaf containing q, descending every subtree whose MBR
// covers q (MBRs may overlap, so several paths can apply).
func (t *Tree) findLeaf(n *Node, q geom.Point) *Node {
	if !n.MBR.Contains(q) {
		return nil
	}
	t.visit(n)
	if n.Leaf {
		for _, p := range n.Points {
			if p == q {
				return n
			}
		}
		return nil
	}
	for _, c := range n.Children {
		if found := t.findLeaf(c, q); found != nil {
			return found
		}
	}
	return nil
}

// WindowQuery returns the exact set of points inside q.
func (t *Tree) WindowQuery(q geom.Rect) []geom.Point {
	var out []geom.Point
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.MBR.Intersects(q) {
			return
		}
		t.visit(n)
		if n.Leaf {
			for _, p := range n.Points {
				if q.Contains(p) {
					out = append(out, p)
				}
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// walks pools KNN's best-first walks.
var walks index.Walks[*Node]

// KNN returns the exact k nearest neighbours of q, closest first, using the
// best-first algorithm [40].
func (t *Tree) KNN(q geom.Point, k int) []geom.Point {
	if t.size == 0 {
		return nil
	}
	return walks.BestFirst(q, k, t.root, func(w *index.Walk[*Node], n *Node) {
		t.visit(n)
		if n.Leaf {
			w.Offer(n.Points...)
			return
		}
		for _, c := range n.Children {
			w.Push(c, c.MBR.MinDist2(q))
		}
	})
}

// Insert adds p using the tree's policy. If the policy implements
// Reinserter, the first leaf overflow of an insertion triggers forced
// reinsertion instead of an immediate split (R* OverflowTreatment).
func (t *Tree) Insert(p geom.Point) {
	leaf := t.chooseLeaf(t.root, p)
	leaf.Points = append(leaf.Points, p)
	leaf.MBR = leaf.MBR.ExtendPoint(p)
	t.size++
	t.adjustUp(leaf, p)
	if len(leaf.Points) <= t.fanout {
		return
	}
	if r, ok := t.policy.(Reinserter); ok && !t.inReinsert {
		if removed := r.PickReinsert(leaf); len(removed) > 0 {
			t.inReinsert = true
			t.removePoints(leaf, removed)
			for _, q := range removed {
				t.Insert(q)
			}
			t.inReinsert = false
			if len(leaf.Points) > t.fanout {
				t.splitNode(leaf)
			}
			return
		}
	}
	t.splitNode(leaf)
}

// removePoints detaches the given points from the leaf and recomputes MBRs.
func (t *Tree) removePoints(leaf *Node, pts []geom.Point) {
	drop := make(map[geom.Point]int, len(pts))
	for _, p := range pts {
		drop[p]++
	}
	kept := leaf.Points[:0]
	for _, p := range leaf.Points {
		if drop[p] > 0 {
			drop[p]--
			continue
		}
		kept = append(kept, p)
	}
	leaf.Points = kept
	t.size -= len(pts)
	recomputeUp(leaf)
}

func (t *Tree) chooseLeaf(n *Node, p geom.Point) *Node {
	for !n.Leaf {
		n = t.policy.ChooseSubtree(n, p)
	}
	return n
}

// adjustUp extends ancestor MBRs to cover p.
func (t *Tree) adjustUp(n *Node, p geom.Point) {
	for a := n.parent; a != nil; a = a.parent {
		a.MBR = a.MBR.ExtendPoint(p)
	}
}

// splitNode splits an overflowing node and propagates overflow upward.
func (t *Tree) splitNode(n *Node) {
	var sibling *Node
	if n.Leaf {
		a, b := t.policy.SplitLeaf(n.Points)
		n.Points = a
		n.MBR = geom.BoundingRect(a)
		sibling = &Node{Leaf: true, Points: b, MBR: geom.BoundingRect(b)}
	} else {
		a, b := t.policy.SplitInternal(n.Children)
		n.Children = a
		n.MBR = unionOf(a)
		for _, c := range a {
			c.parent = n
		}
		sibling = &Node{Children: b, MBR: unionOf(b)}
		for _, c := range b {
			c.parent = sibling
		}
	}
	t.nodes++
	if n.parent == nil {
		// Root split: grow the tree.
		newRoot := &Node{MBR: n.MBR.Union(sibling.MBR), Children: []*Node{n, sibling}}
		n.parent = newRoot
		sibling.parent = newRoot
		t.root = newRoot
		t.nodes++
		t.height++
		return
	}
	parent := n.parent
	sibling.parent = parent
	parent.Children = append(parent.Children, sibling)
	// n's MBR shrank; recompute ancestors exactly.
	recomputeUp(parent)
	if len(parent.Children) > t.fanout {
		t.splitNode(parent)
	}
}

func unionOf(ch []*Node) geom.Rect {
	r := geom.EmptyRect()
	for _, c := range ch {
		r = r.Union(c.MBR)
	}
	return r
}

func recomputeUp(n *Node) {
	for ; n != nil; n = n.parent {
		if n.Leaf {
			n.MBR = geom.BoundingRect(n.Points)
			continue
		}
		n.MBR = unionOf(n.Children)
	}
}

// Delete removes the point with exactly p's coordinates, condensing the tree
// if a leaf underflows (below 40% fill), reinserting orphaned points.
func (t *Tree) Delete(p geom.Point) bool {
	leaf := t.findLeaf(t.root, p)
	if leaf == nil {
		return false
	}
	for i, q := range leaf.Points {
		if q == p {
			last := len(leaf.Points) - 1
			leaf.Points[i] = leaf.Points[last]
			leaf.Points = leaf.Points[:last]
			break
		}
	}
	t.size--
	minFill := t.fanout * 2 / 5
	if leaf.parent != nil && len(leaf.Points) < minFill {
		// Condense: remove the leaf, reinsert its points.
		orphans := append([]geom.Point(nil), leaf.Points...)
		t.removeChild(leaf.parent, leaf)
		t.size -= len(orphans)
		for _, o := range orphans {
			t.Insert(o)
		}
	} else {
		recomputeUp(leaf)
	}
	return true
}

// removeChild detaches c from parent, condensing upward if the parent
// underflows to empty (single-child chains are tolerated; R-trees allow
// them transiently).
func (t *Tree) removeChild(parent, c *Node) {
	for i, ch := range parent.Children {
		if ch == c {
			last := len(parent.Children) - 1
			parent.Children[i] = parent.Children[last]
			parent.Children = parent.Children[:last]
			break
		}
	}
	t.nodes--
	if len(parent.Children) == 0 && parent.parent != nil {
		t.removeChild(parent.parent, parent)
		return
	}
	recomputeUp(parent)
	// Shrink the root if it has a single internal child.
	for !t.root.Leaf && len(t.root.Children) == 1 {
		t.root = t.root.Children[0]
		t.root.parent = nil
		t.nodes--
		t.height--
	}
}

// Fanout returns the node capacity.
func (t *Tree) Fanout() int { return t.fanout }
