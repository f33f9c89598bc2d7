// Package btree implements an in-memory B+-tree keyed by float64 with
// uint64 item identifiers as values. It is the index substrate for the
// paper's DBMS baseline (§5.1): "a popular database approach that uses a
// B+ tree to index each metadata attribute".
//
// Duplicate keys are supported (many files share an attribute value);
// each leaf slot holds the list of item ids filed under that key. Leaves
// are chained for ordered range scans.
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of keys per node.
const DefaultOrder = 64

// Tree is a B+-tree mapping float64 keys to sets of uint64 item ids.
type Tree struct {
	root  node
	order int // max keys per node
}

type node interface {
	// insert returns a new right sibling and its separator key when the
	// node split, else nil.
	insert(key float64, id uint64, order int) (node, float64)
	findLeaf(key float64) *leaf
}

type leaf struct {
	keys []float64
	ids  [][]uint64
	next *leaf
}

type internal struct {
	keys     []float64 // len = len(children)-1
	children []node
}

// New returns an empty tree with the given order (max keys per node,
// minimum 3).
func New(order int) *Tree {
	if order < 3 {
		panic(fmt.Sprintf("btree: order %d too small", order))
	}
	return &Tree{root: &leaf{}, order: order}
}

// NewDefault returns an empty tree of DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Insert files id under key.
func (t *Tree) Insert(key float64, id uint64) {
	if sibling, sep := t.root.insert(key, id, t.order); sibling != nil {
		t.root = &internal{keys: []float64{sep}, children: []node{t.root, sibling}}
	}
}

// Get returns the ids filed under exactly key (nil if none).
func (t *Tree) Get(key float64) []uint64 {
	lf := t.root.findLeaf(key)
	i := sort.SearchFloat64s(lf.keys, key)
	if i < len(lf.keys) && lf.keys[i] == key {
		out := make([]uint64, len(lf.ids[i]))
		copy(out, lf.ids[i])
		return out
	}
	return nil
}

// Range appends to dst the ids of all pairs with lo ≤ key ≤ hi and
// returns the result. The visit count (leaf slots touched) is returned
// for cost accounting.
func (t *Tree) Range(dst []uint64, lo, hi float64) ([]uint64, int) {
	visited := 0
	lf := t.root.findLeaf(lo)
	for lf != nil {
		for i, k := range lf.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return dst, visited
			}
			visited++
			dst = append(dst, lf.ids[i]...)
		}
		lf = lf.next
	}
	return dst, visited
}

// SizeBytes estimates the in-memory footprint of the tree for the space
// accounting of Fig. 7: 8 bytes per key, 8 per id, 16 per node header,
// 8 per child pointer.
func (t *Tree) SizeBytes() int {
	size := 0
	var walk func(n node)
	walk = func(n node) {
		switch v := n.(type) {
		case *leaf:
			size += 16 + len(v.keys)*8 + 8 // header + keys + next ptr
			for _, ids := range v.ids {
				size += 24 + len(ids)*8 // slice header + ids
			}
		case *internal:
			size += 16 + len(v.keys)*8 + len(v.children)*8
			for _, c := range v.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return size
}

// --- leaf ---

func (l *leaf) findLeaf(float64) *leaf { return l }

func (l *leaf) insert(key float64, id uint64, order int) (node, float64) {
	i := sort.SearchFloat64s(l.keys, key)
	if i < len(l.keys) && l.keys[i] == key {
		l.ids[i] = append(l.ids[i], id)
	} else {
		l.keys = append(l.keys, 0)
		copy(l.keys[i+1:], l.keys[i:])
		l.keys[i] = key
		l.ids = append(l.ids, nil)
		copy(l.ids[i+1:], l.ids[i:])
		l.ids[i] = []uint64{id}
	}
	if len(l.keys) <= order {
		return nil, 0
	}
	// Split.
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]float64(nil), l.keys[mid:]...),
		ids:  append([][]uint64(nil), l.ids[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid]
	l.ids = l.ids[:mid]
	l.next = right
	return right, right.keys[0]
}

// --- internal ---

func (in *internal) findLeaf(key float64) *leaf {
	return in.children[in.childIndex(key)].findLeaf(key)
}

func (in *internal) childIndex(key float64) int {
	// First separator strictly greater than key determines the child:
	// child i covers keys in [keys[i-1], keys[i]).
	i := sort.SearchFloat64s(in.keys, key)
	if i < len(in.keys) && in.keys[i] == key {
		i++
	}
	return i
}

func (in *internal) insert(key float64, id uint64, order int) (node, float64) {
	ci := in.childIndex(key)
	sibling, sep := in.children[ci].insert(key, id, order)
	if sibling == nil {
		return nil, 0
	}
	in.keys = append(in.keys, 0)
	copy(in.keys[ci+1:], in.keys[ci:])
	in.keys[ci] = sep
	in.children = append(in.children, nil)
	copy(in.children[ci+2:], in.children[ci+1:])
	in.children[ci+1] = sibling
	if len(in.keys) <= order {
		return nil, 0
	}
	mid := len(in.keys) / 2
	sepUp := in.keys[mid]
	right := &internal{
		keys:     append([]float64(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	return right, sepUp
}
