// Package btree implements a B+-tree of float64 keys.
//
// It is the substrate for the HRR baseline's rank-space mapping: the
// rank-space R-tree of Qi et al. [37, 38] keeps one B-tree per dimension to
// map a query coordinate to its rank at query time, and the paper notes HRR
// "is also larger than RSMI because it uses two extra B-trees for its rank
// space mapping" (§6.2.2). HRR needs only Bulk, Rank, Insert and SizeBytes,
// so that is all the tree offers: no lookup by key, no range scan.
package btree

import "sort"

// DefaultFanout mirrors the paper's node capacity of 100 entries.
const DefaultFanout = 100

// Tree is a B+-tree of float64 keys. Duplicate keys are allowed; Rank
// semantics treat them as a run.
type Tree struct {
	fanout int
	root   node
	height int
	size   int
	nodes  int
}

type node interface {
	isLeaf() bool
}

type innerNode struct {
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys     []float64
	children []node
	// total is the number of entries in this subtree, maintained so Rank
	// runs in O(fanout × height) instead of O(n).
	total int
}

type leafNode struct {
	keys []float64
}

func (*innerNode) isLeaf() bool { return false }
func (*leafNode) isLeaf() bool  { return true }

// Bulk builds a tree from keys sorted ascending. It packs
// leaves to full fanout bottom-up, the construction HRR uses; fanout 0
// selects DefaultFanout, and fanouts below 4 are raised to 4. Bulk panics if
// the keys are not sorted: bulk loading order is the caller's contract.
func Bulk(keys []float64, fanout int) *Tree {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic("btree: Bulk with unsorted keys")
		}
	}
	if fanout == 0 {
		fanout = DefaultFanout
	}
	t := &Tree{fanout: max(fanout, 4), root: &leafNode{}, height: 1, nodes: 1}
	if len(keys) == 0 {
		return t
	}
	t.size = len(keys)
	// Pack leaves.
	var leaves []node
	var firstKeys []float64
	t.nodes = 0
	for i := 0; i < len(keys); i += t.fanout {
		j := i + t.fanout
		if j > len(keys) {
			j = len(keys)
		}
		lf := &leafNode{keys: append([]float64(nil), keys[i:j]...)}
		leaves = append(leaves, lf)
		firstKeys = append(firstKeys, keys[i])
		t.nodes++
	}
	level := leaves
	levelKeys := firstKeys
	t.height = 1
	for len(level) > 1 {
		var up []node
		var upKeys []float64
		for i := 0; i < len(level); i += t.fanout {
			j := i + t.fanout
			if j > len(level) {
				j = len(level)
			}
			in := &innerNode{
				keys:     append([]float64(nil), levelKeys[i+1:j]...),
				children: append([]node(nil), level[i:j]...),
			}
			for _, c := range in.children {
				in.total += subtreeSize(c)
			}
			up = append(up, in)
			upKeys = append(upKeys, levelKeys[i])
			t.nodes++
		}
		level, levelKeys = up, upKeys
		t.height++
	}
	t.root = level[0]
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int { return t.height }

// SizeBytes returns an accounting of the tree's storage: every node is a
// fixed-size page of fanout (key, value/pointer) slots.
func (t *Tree) SizeBytes() int64 {
	const slot = 16 // 8-byte key + 8-byte value or pointer
	return int64(t.nodes) * int64(t.fanout) * slot
}

// Rank returns the number of entries with key strictly less than the given
// key. This is the operation HRR needs: mapping a query coordinate to its
// rank.
func (t *Tree) Rank(key float64) int {
	n := t.root
	rank := 0
	for !n.isLeaf() {
		in := n.(*innerNode)
		i := sort.SearchFloat64s(in.keys, key)
		for c := 0; c < i; c++ {
			rank += subtreeSize(in.children[c])
		}
		n = in.children[i]
	}
	lf := n.(*leafNode)
	rank += sort.SearchFloat64s(lf.keys, key)
	return rank
}

// subtreeSize returns the entry count of n's subtree in O(1) using the
// maintained totals.
func subtreeSize(n node) int {
	if lf, ok := n.(*leafNode); ok {
		return len(lf.keys)
	}
	return n.(*innerNode).total
}

// Insert adds a key, splitting nodes as needed.
func (t *Tree) Insert(key float64) {
	newChild, splitKey := t.insert(t.root, key)
	if newChild != nil {
		root := &innerNode{
			keys:     []float64{splitKey},
			children: []node{t.root, newChild},
		}
		root.total = subtreeSize(t.root) + subtreeSize(newChild)
		t.root = root
		t.height++
		t.nodes++
	}
	t.size++
}

// insert recursively inserts and returns a new right sibling and its
// separator key when n split.
func (t *Tree) insert(n node, key float64) (node, float64) {
	if lf, ok := n.(*leafNode); ok {
		i := sort.SearchFloat64s(lf.keys, key)
		lf.keys = append(lf.keys, 0)
		copy(lf.keys[i+1:], lf.keys[i:])
		lf.keys[i] = key
		if len(lf.keys) <= t.fanout {
			return nil, 0
		}
		mid := len(lf.keys) / 2
		right := &leafNode{keys: append([]float64(nil), lf.keys[mid:]...)}
		lf.keys = lf.keys[:mid]
		t.nodes++
		return right, right.keys[0]
	}
	in := n.(*innerNode)
	i := sort.SearchFloat64s(in.keys, key)
	if i < len(in.keys) && in.keys[i] == key {
		i++
	}
	in.total++
	newChild, splitKey := t.insert(in.children[i], key)
	if newChild == nil {
		return nil, 0
	}
	in.keys = append(in.keys, 0)
	copy(in.keys[i+1:], in.keys[i:])
	in.keys[i] = splitKey
	in.children = append(in.children, nil)
	copy(in.children[i+2:], in.children[i+1:])
	in.children[i+1] = newChild
	if len(in.children) <= t.fanout {
		return nil, 0
	}
	mid := len(in.children) / 2
	right := &innerNode{
		keys:     append([]float64(nil), in.keys[mid:]...),
		children: append([]node(nil), in.children[mid:]...),
	}
	sep := in.keys[mid-1]
	in.keys = in.keys[:mid-1]
	in.children = in.children[:mid]
	for _, c := range right.children {
		right.total += subtreeSize(c)
	}
	in.total -= right.total
	t.nodes++
	return right, sep
}
