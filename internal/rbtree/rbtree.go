// Package rbtree implements a transaction-based red-black tree modelled on
// the Oracle Labs (formerly Sun) library that STAMP and synchrobench ship
// and that the paper uses as its primary baseline (§2, §5.1). Like that
// library it is sentinel-free (no shared NIL node, which would be a
// false-conflict hotspot) and keeps parent pointers; like all the
// "tightly coupled" baselines, each insert/delete transaction performs the
// abstraction modification, the structural adaptation, the threshold check
// and the rebalancing together, so rotations triggered near the root
// conflict with every concurrent traversal.
//
// The rebalancing logic follows the classical sentinel-free formulation
// (the one java.util.TreeMap uses), with every node access performed
// through the STM.
package rbtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// Colors, stored in Node.Balance().
const (
	red   = uint64(0)
	black = uint64(1)
)

// Tree is a transactional red-black tree. Its whole operations, lookup,
// upsert and range scan come from the embedded txmap.Coupled; the tree
// supplies InsertTx and DeleteTx with their rebalancing.
type Tree struct {
	txmap.Coupled

	rotations atomic.Uint64
}

// New creates an empty red-black tree on the given STM domain.
func New(s *stm.STM) *Tree {
	t := &Tree{}
	t.Init(t, s)
	return t
}

// Rotations returns the number of rotations executed, including those of
// transaction attempts that later aborted (the counter the §5.5 comparison
// against the speculation-friendly tree's committed rotations uses).
func (t *Tree) Rotations() uint64 { return t.rotations.Load() }

func (t *Tree) node(r arena.Ref) *arena.Node { return t.Nodes.Get(r) }

// --- transactional accessors (nil-tolerant, as in the sentinel-free code) --

func (t *Tree) parentOf(tx *stm.Tx, r arena.Ref) arena.Ref {
	if r == arena.Nil {
		return arena.Nil
	}
	return tx.Read(t.node(r).Parent())
}

func (t *Tree) leftOf(tx *stm.Tx, r arena.Ref) arena.Ref {
	if r == arena.Nil {
		return arena.Nil
	}
	return tx.Read(&t.node(r).L)
}

func (t *Tree) rightOf(tx *stm.Tx, r arena.Ref) arena.Ref {
	if r == arena.Nil {
		return arena.Nil
	}
	return tx.Read(&t.node(r).R)
}

// colorOf treats ⊥ as black, the red-black convention for external nodes.
func (t *Tree) colorOf(tx *stm.Tx, r arena.Ref) uint64 {
	if r == arena.Nil {
		return black
	}
	return tx.Read(t.node(r).Balance())
}

// setColor writes the color only when it changes, keeping write sets tight.
func (t *Tree) setColor(tx *stm.Tx, r arena.Ref, c uint64) {
	if r == arena.Nil {
		return
	}
	w := t.node(r).Balance()
	if tx.Read(w) != c {
		tx.Write(w, c)
	}
}

// --- rotations (inside the calling transaction) ---------------------------

func (t *Tree) rotateLeft(tx *stm.Tx, p arena.Ref) {
	if p == arena.Nil {
		return
	}
	t.rotations.Add(1)
	pn := t.node(p)
	r := tx.Read(&pn.R)
	if r == arena.Nil {
		// A consistent snapshot never rotates a node without the rising
		// child; seeing one means this attempt is doomed (possible under
		// relaxed read tracking, e.g. elastic mode). Retry.
		tx.Restart()
	}
	rn := t.node(r)
	rl := tx.Read(&rn.L)
	tx.Write(&pn.R, rl)
	if rl != arena.Nil {
		tx.Write(t.node(rl).Parent(), p)
	}
	g := tx.Read(pn.Parent())
	tx.Write(rn.Parent(), g)
	if g == arena.Nil {
		tx.Write(&t.Root, r)
	} else if tx.Read(&t.node(g).L) == p {
		tx.Write(&t.node(g).L, r)
	} else {
		tx.Write(&t.node(g).R, r)
	}
	tx.Write(&rn.L, p)
	tx.Write(pn.Parent(), r)
}

func (t *Tree) rotateRight(tx *stm.Tx, p arena.Ref) {
	if p == arena.Nil {
		return
	}
	t.rotations.Add(1)
	pn := t.node(p)
	l := tx.Read(&pn.L)
	if l == arena.Nil {
		tx.Restart() // doomed attempt: see rotateLeft
	}
	ln := t.node(l)
	lr := tx.Read(&ln.R)
	tx.Write(&pn.L, lr)
	if lr != arena.Nil {
		tx.Write(t.node(lr).Parent(), p)
	}
	g := tx.Read(pn.Parent())
	tx.Write(ln.Parent(), g)
	if g == arena.Nil {
		tx.Write(&t.Root, l)
	} else if tx.Read(&t.node(g).R) == p {
		tx.Write(&t.node(g).R, l)
	} else {
		tx.Write(&t.node(g).L, l)
	}
	tx.Write(&ln.R, p)
	tx.Write(pn.Parent(), l)
}

// --- composable updates ----------------------------------------------------

// InsertTx maps k to v if absent, rebalancing inside the same transaction.
// The new node comes from tx.Alloc, so an attempt that does not commit
// gives it back.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64) bool {
	ref := tx.Read(&t.Root)
	if ref == arena.Nil {
		r := tx.Alloc(t.Nodes, k, v)
		t.node(r).Balance().SetPlain(black)
		tx.Write(&t.Root, r)
		return true
	}
	var parent arena.Ref
	var right bool
	for ref != arena.Nil {
		n := t.node(ref)
		key := tx.Read(&n.Key)
		if k == key {
			return false
		}
		parent = ref
		right = k > key
		ref = tx.Read(n.Child(right))
	}
	x := tx.Alloc(t.Nodes, k, v)
	xn := t.node(x)
	xn.Balance().SetPlain(red)
	xn.Parent().SetPlain(arena.Nil)
	tx.Write(xn.Parent(), parent)
	tx.Write(t.node(parent).Child(right), x)
	t.fixAfterInsertion(tx, x)
	return true
}

func (t *Tree) fixAfterInsertion(tx *stm.Tx, x arena.Ref) {
	for x != arena.Nil && x != tx.Read(&t.Root) && t.colorOf(tx, t.parentOf(tx, x)) == red {
		p := t.parentOf(tx, x)
		g := t.parentOf(tx, p)
		if p == t.leftOf(tx, g) {
			y := t.rightOf(tx, g)
			if t.colorOf(tx, y) == red {
				t.setColor(tx, p, black)
				t.setColor(tx, y, black)
				t.setColor(tx, g, red)
				x = g
			} else {
				if x == t.rightOf(tx, p) {
					x = p
					t.rotateLeft(tx, x)
					p = t.parentOf(tx, x)
					g = t.parentOf(tx, p)
				}
				t.setColor(tx, p, black)
				t.setColor(tx, g, red)
				t.rotateRight(tx, g)
			}
		} else {
			y := t.leftOf(tx, g)
			if t.colorOf(tx, y) == red {
				t.setColor(tx, p, black)
				t.setColor(tx, y, black)
				t.setColor(tx, g, red)
				x = g
			} else {
				if x == t.leftOf(tx, p) {
					x = p
					t.rotateRight(tx, x)
					p = t.parentOf(tx, x)
					g = t.parentOf(tx, p)
				}
				t.setColor(tx, p, black)
				t.setColor(tx, g, red)
				t.rotateLeft(tx, g)
			}
		}
	}
	t.setColor(tx, tx.Read(&t.Root), black)
}

// DeleteTx removes k, unlinking and rebalancing in the same transaction.
func (t *Tree) DeleteTx(tx *stm.Tx, k uint64) bool {
	p := t.Lookup(tx, k)
	if p == arena.Nil {
		return false
	}
	t.deleteEntry(tx, p)
	return true
}

// deleteEntry unlinks the entry at p (or, when p has two children, moves
// its successor's payload into p and unlinks the successor), rebalances,
// and retires the unlinked node: the thread's limbo frees it once no
// operation that could still hold it is running (stm.Tx.Retire).
func (t *Tree) deleteEntry(tx *stm.Tx, p arena.Ref) {
	pn := t.node(p)
	if tx.Read(&pn.L) != arena.Nil && tx.Read(&pn.R) != arena.Nil {
		// Interior node: copy the successor's payload here and delete the
		// successor instead (it has at most one child).
		s := t.successor(tx, p)
		sn := t.node(s)
		tx.Write(&pn.Key, tx.Read(&sn.Key))
		tx.Write(&pn.Val, tx.Read(&sn.Val))
		p = s
		pn = sn
	}
	replacement := tx.Read(&pn.L)
	if replacement == arena.Nil {
		replacement = tx.Read(&pn.R)
	}
	parent := tx.Read(pn.Parent())
	switch {
	case replacement != arena.Nil:
		tx.Write(t.node(replacement).Parent(), parent)
		if parent == arena.Nil {
			tx.Write(&t.Root, replacement)
		} else if p == tx.Read(&t.node(parent).L) {
			tx.Write(&t.node(parent).L, replacement)
		} else {
			tx.Write(&t.node(parent).R, replacement)
		}
		tx.Write(&pn.L, arena.Nil)
		tx.Write(&pn.R, arena.Nil)
		tx.Write(pn.Parent(), arena.Nil)
		if tx.Read(pn.Balance()) == black {
			t.fixAfterDeletion(tx, replacement)
		}
	case parent == arena.Nil:
		tx.Write(&t.Root, arena.Nil)
	default:
		// p is a leaf: fix up with p still in place, then unlink it.
		if tx.Read(pn.Balance()) == black {
			t.fixAfterDeletion(tx, p)
		}
		parent = tx.Read(pn.Parent())
		if parent != arena.Nil {
			gn := t.node(parent)
			if p == tx.Read(&gn.L) {
				tx.Write(&gn.L, arena.Nil)
			} else if p == tx.Read(&gn.R) {
				tx.Write(&gn.R, arena.Nil)
			}
			tx.Write(pn.Parent(), arena.Nil)
		}
	}
	tx.Retire(t.Nodes, p)
}

// successor returns the in-order successor of a node that has a right child.
func (t *Tree) successor(tx *stm.Tx, p arena.Ref) arena.Ref {
	ref := tx.Read(&t.node(p).R)
	if ref == arena.Nil {
		tx.Restart() // doomed attempt: the caller saw a right child
	}
	for {
		l := tx.Read(&t.node(ref).L)
		if l == arena.Nil {
			return ref
		}
		ref = l
	}
}

func (t *Tree) fixAfterDeletion(tx *stm.Tx, x arena.Ref) {
	for x != tx.Read(&t.Root) && t.colorOf(tx, x) == black {
		p := t.parentOf(tx, x)
		if x == t.leftOf(tx, p) {
			sib := t.rightOf(tx, p)
			if t.colorOf(tx, sib) == red {
				t.setColor(tx, sib, black)
				t.setColor(tx, p, red)
				t.rotateLeft(tx, p)
				p = t.parentOf(tx, x)
				sib = t.rightOf(tx, p)
			}
			if t.colorOf(tx, t.leftOf(tx, sib)) == black && t.colorOf(tx, t.rightOf(tx, sib)) == black {
				t.setColor(tx, sib, red)
				x = p
			} else {
				if t.colorOf(tx, t.rightOf(tx, sib)) == black {
					t.setColor(tx, t.leftOf(tx, sib), black)
					t.setColor(tx, sib, red)
					t.rotateRight(tx, sib)
					p = t.parentOf(tx, x)
					sib = t.rightOf(tx, p)
				}
				t.setColor(tx, sib, t.colorOf(tx, p))
				t.setColor(tx, p, black)
				t.setColor(tx, t.rightOf(tx, sib), black)
				t.rotateLeft(tx, p)
				x = tx.Read(&t.Root)
			}
		} else {
			sib := t.leftOf(tx, p)
			if t.colorOf(tx, sib) == red {
				t.setColor(tx, sib, black)
				t.setColor(tx, p, red)
				t.rotateRight(tx, p)
				p = t.parentOf(tx, x)
				sib = t.leftOf(tx, p)
			}
			if t.colorOf(tx, t.rightOf(tx, sib)) == black && t.colorOf(tx, t.leftOf(tx, sib)) == black {
				t.setColor(tx, sib, red)
				x = p
			} else {
				if t.colorOf(tx, t.leftOf(tx, sib)) == black {
					t.setColor(tx, t.rightOf(tx, sib), black)
					t.setColor(tx, sib, red)
					t.rotateLeft(tx, sib)
					p = t.parentOf(tx, x)
					sib = t.leftOf(tx, p)
				}
				t.setColor(tx, sib, t.colorOf(tx, p))
				t.setColor(tx, p, black)
				t.setColor(tx, t.leftOf(tx, sib), black)
				t.rotateRight(tx, p)
				x = tx.Read(&t.Root)
			}
		}
	}
	t.setColor(tx, x, black)
}

// CheckInvariants verifies (plain reads, quiescent use) the BST property,
// parent-pointer consistency, and the red-black invariants: the root is
// black, no red node has a red child, and every root-to-leaf path crosses
// the same number of black nodes.
func (t *Tree) CheckInvariants() error {
	root := t.Root.Plain()
	if root == arena.Nil {
		return nil
	}
	rn := t.node(root)
	if rn.Balance().Plain() != black {
		return fmt.Errorf("root is red")
	}
	if rn.Parent().Plain() != arena.Nil {
		return fmt.Errorf("root has a parent")
	}
	_, _, err := t.checkRec(root, 0, false, 0, false)
	return err
}

func (t *Tree) checkRec(ref arena.Ref, lo uint64, loSet bool, hi uint64, hiSet bool) (blackHeight int, size int, err error) {
	if ref == arena.Nil {
		return 1, 0, nil
	}
	n := t.node(ref)
	k := n.Key.Plain()
	if loSet && k <= lo {
		return 0, 0, fmt.Errorf("key %d violates lower bound %d", k, lo)
	}
	if hiSet && k >= hi {
		return 0, 0, fmt.Errorf("key %d violates upper bound %d", k, hi)
	}
	l, r := n.L.Plain(), n.R.Plain()
	if n.Balance().Plain() == red {
		if l != arena.Nil && t.node(l).Balance().Plain() == red {
			return 0, 0, fmt.Errorf("red node %d has red left child", k)
		}
		if r != arena.Nil && t.node(r).Balance().Plain() == red {
			return 0, 0, fmt.Errorf("red node %d has red right child", k)
		}
	}
	if l != arena.Nil && t.node(l).Parent().Plain() != ref {
		return 0, 0, fmt.Errorf("left child of %d has wrong parent", k)
	}
	if r != arena.Nil && t.node(r).Parent().Plain() != ref {
		return 0, 0, fmt.Errorf("right child of %d has wrong parent", k)
	}
	lb, ls, err := t.checkRec(l, lo, loSet, k, true)
	if err != nil {
		return 0, 0, err
	}
	rb, rs, err := t.checkRec(r, k, true, hi, hiSet)
	if err != nil {
		return 0, 0, err
	}
	if lb != rb {
		return 0, 0, fmt.Errorf("black-height mismatch at %d: %d vs %d", k, lb, rb)
	}
	bh := lb
	if n.Balance().Plain() == black {
		bh++
	}
	return bh, 1 + ls + rs, nil
}
