// Package rbtree implements a red-black interval tree keyed by simulated
// address. The paper keeps heap-block extents "in a red-black tree ... since
// this data will change as allocations and deallocations take place"; this
// package is that index. Keys are block base addresses; each node also
// stores the block size so the tree can answer stabbing queries
// (which block contains address a?) via a floor search.
package rbtree

import "membottle/internal/mem"

type color bool

const (
	red   color = false
	black color = true
)

// Value is the payload attached to each block. Callers store whatever
// object descriptor they track per heap block.
type Value interface{}

type node struct {
	base        mem.Addr
	size        uint64
	value       Value
	left, right *node
	parent      *node
	color       color
}

// Tree is a red-black tree of non-overlapping [base, base+size) intervals.
// The zero value is an empty tree ready for use.
type Tree struct {
	root *node
	len  int
}

// Len returns the number of blocks in the tree.
func (t *Tree) Len() int { return t.len }

// Insert adds a block. If a block with the same base already exists its
// size and value are replaced (re-allocation at the same address).
func (t *Tree) Insert(base mem.Addr, size uint64, v Value) {
	var parent *node
	link := &t.root
	for *link != nil {
		parent = *link
		switch {
		case base < parent.base:
			link = &parent.left
		case base > parent.base:
			link = &parent.right
		default:
			parent.size = size
			parent.value = v
			return
		}
	}
	n := &node{base: base, size: size, value: v, parent: parent, color: red}
	*link = n
	t.len++
	t.insertFixup(n)
}

// Delete removes the block with the given base address. It reports whether
// a block was removed.
func (t *Tree) Delete(base mem.Addr) bool {
	n := t.find(base)
	if n == nil {
		return false
	}
	t.delete(n)
	t.len--
	return true
}

// Get returns the value stored for the exact base address.
func (t *Tree) Get(base mem.Addr) (Value, bool) {
	if n := t.find(base); n != nil {
		return n.value, true
	}
	return nil, false
}

// Find returns the block containing address a, if any: the block with the
// greatest base <= a whose extent covers a.
func (t *Tree) Find(a mem.Addr) (base mem.Addr, size uint64, v Value, ok bool) {
	n := t.floor(a)
	if n == nil || a >= n.base+mem.Addr(n.size) {
		return 0, 0, nil, false
	}
	return n.base, n.size, n.value, true
}

// FindWithCost is Find, additionally reporting the number of nodes visited
// on the root-to-result path. The instrumentation-cost model charges one
// simulated memory access per visited node, mirroring the pointer chase a
// real implementation would perform.
func (t *Tree) FindWithCost(a mem.Addr) (base mem.Addr, size uint64, v Value, depth int, ok bool) {
	n := t.root
	var best *node
	for n != nil {
		depth++
		if n.base <= a {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil || a >= best.base+mem.Addr(best.size) {
		return 0, 0, nil, depth, false
	}
	return best.base, best.size, best.value, depth, true
}

// Ascend calls fn for every block in increasing base order until fn
// returns false.
func (t *Tree) Ascend(fn func(base mem.Addr, size uint64, v Value) bool) {
	ascend(t.root, fn)
}

func ascend(n *node, fn func(mem.Addr, uint64, Value) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.base, n.size, n.value) {
		return false
	}
	return ascend(n.right, fn)
}

// Height returns the height of the tree (0 for empty). Exposed for tests
// and for the instrumentation-cost model's worst-case estimates.
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func (t *Tree) find(base mem.Addr) *node {
	n := t.root
	for n != nil {
		switch {
		case base < n.base:
			n = n.left
		case base > n.base:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

func (t *Tree) floor(a mem.Addr) *node {
	var best *node
	n := t.root
	for n != nil {
		if n.base <= a {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	return best
}

// --- red-black machinery (CLRS-style with explicit parent pointers) ---

func (t *Tree) rotateLeft(x *node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree) rotateRight(x *node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree) insertFixup(z *node) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = black
}

func (t *Tree) transplant(u, v *node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree) delete(z *node) {
	y := z
	yColor := y.color
	var x *node
	var xParent *node
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFixup(x, xParent)
	}
}

func isBlack(n *node) bool { return n == nil || n.color == black }

func (t *Tree) deleteFixup(x, parent *node) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.right) {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.left) {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// checkInvariants validates the red-black properties and BST ordering.
// It returns a descriptive string for the first violation found, or "".
// Exported to the package's tests via rbtree_test.go.
func (t *Tree) checkInvariants() string {
	if t.root == nil {
		return ""
	}
	if t.root.color != black {
		return "root is red"
	}
	_, msg := checkNode(t.root, nil)
	if msg != "" {
		return msg
	}
	// BST order + parent pointers
	var prev *node
	var walk func(n *node) string
	walk = func(n *node) string {
		if n == nil {
			return ""
		}
		if n.left != nil && n.left.parent != n {
			return "bad parent pointer (left)"
		}
		if n.right != nil && n.right.parent != n {
			return "bad parent pointer (right)"
		}
		if s := walk(n.left); s != "" {
			return s
		}
		if prev != nil && prev.base >= n.base {
			return "BST order violated"
		}
		prev = n
		return walk(n.right)
	}
	return walk(t.root)
}

func checkNode(n, parent *node) (blackHeight int, msg string) {
	if n == nil {
		return 1, ""
	}
	if n.color == red && parent != nil && parent.color == red {
		return 0, "red node has red parent"
	}
	lh, msg := checkNode(n.left, n)
	if msg != "" {
		return 0, msg
	}
	rh, msg := checkNode(n.right, n)
	if msg != "" {
		return 0, msg
	}
	if lh != rh {
		return 0, "black heights differ"
	}
	if n.color == black {
		lh++
	}
	return lh, ""
}
