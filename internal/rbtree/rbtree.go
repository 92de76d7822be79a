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
)

// Colors, stored in Node.Balance().
const (
	red   = uint64(0)
	black = uint64(1)
)

// Tree is a transactional red-black tree.
type Tree struct {
	s  *stm.STM
	ar *arena.Arena

	root stm.Word // arena.Ref of the root

	rotations atomic.Uint64
}

// STM returns the domain the tree lives in.
func (t *Tree) STM() *stm.STM { return t.s }

// New creates an empty red-black tree on the given STM domain.
func New(s *stm.STM) *Tree {
	return &Tree{s: s, ar: arena.New()}
}

// Arena exposes the node arena for instrumentation.
func (t *Tree) Arena() *arena.Arena { return t.ar }

// Rotations returns the number of rotations executed, including those of
// transaction attempts that later aborted (the counter the §5.5 comparison
// against the speculation-friendly tree's committed rotations uses).
func (t *Tree) Rotations() uint64 { return t.rotations.Load() }

func (t *Tree) node(r arena.Ref) *arena.Node { return t.ar.Get(r) }

// ElasticSafe reports that this tree must NOT run under elastic cutting:
// deletion replaces keys in place (successor copy), so a traversal whose
// earlier reads were cut can mis-route undetectably, and rotation writes
// computed from cut reads can commit structural corruption. See atomic.
func (t *Tree) ElasticSafe() bool { return false }

// atomic runs fn in the thread's default TM mode, demoted from Elastic to
// CTL. Elastic transactions relax exactly the guarantee this tree's
// coupled restructuring relies on — that every read on the path is
// revalidated at commit — which is the paper's §5.3 point inverted: the TM
// relaxation only pays off on structures designed for it.
func (t *Tree) atomic(th *stm.Thread, fn func(*stm.Tx)) {
	mode := th.STM().DefaultMode()
	if mode == stm.Elastic {
		mode = stm.CTL
	}
	th.AtomicMode(mode, fn)
}

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
		tx.Write(&t.root, r)
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
		tx.Write(&t.root, l)
	} else if tx.Read(&t.node(g).R) == p {
		tx.Write(&t.node(g).R, l)
	} else {
		tx.Write(&t.node(g).L, l)
	}
	tx.Write(&ln.R, p)
	tx.Write(pn.Parent(), l)
}

// --- abstract operations ---------------------------------------------------

// Contains reports whether k is present.
func (t *Tree) Contains(th *stm.Thread, k uint64) bool {
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.ContainsTx(tx, k) })
	return ok
}

// ContainsTx is the composable form of Contains.
func (t *Tree) ContainsTx(tx *stm.Tx, k uint64) bool {
	_, ok := t.ValTx(tx, k)
	return ok
}

// Get returns the value mapped to k.
func (t *Tree) Get(th *stm.Thread, k uint64) (uint64, bool) {
	var v uint64
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { v, ok = t.GetTx(tx, k) })
	return v, ok
}

// GetTx is the composable form of Get.
func (t *Tree) GetTx(tx *stm.Tx, k uint64) (uint64, bool) {
	w, ok := t.ValTx(tx, k)
	if !ok {
		return 0, false
	}
	return tx.Read(w), true
}

// ValTx returns the word holding k's value in tx's snapshot, or false when
// k is absent. A delete of a node with two children moves its successor's
// key and value into it (deleteEntry): a caller that writes the word later
// in tx must do so before any DeleteTx of the same transaction.
func (t *Tree) ValTx(tx *stm.Tx, k uint64) (*stm.Word, bool) {
	ref := t.lookup(tx, k)
	if ref == arena.Nil {
		return nil, false
	}
	return &t.node(ref).Val, true
}

func (t *Tree) lookup(tx *stm.Tx, k uint64) arena.Ref {
	ref := tx.Read(&t.root)
	for ref != arena.Nil {
		n := t.node(ref)
		key := tx.Read(&n.Key)
		switch {
		case k == key:
			return ref
		case k < key:
			ref = tx.Read(&n.L)
		default:
			ref = tx.Read(&n.R)
		}
	}
	return arena.Nil
}

// Insert maps k to v if absent, rebalancing inside the same transaction.
func (t *Tree) Insert(th *stm.Thread, k, v uint64) bool {
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.InsertTx(tx, k, v) })
	return ok
}

// InsertTx is the composable form of Insert. The new node comes from
// tx.Alloc, so an attempt that does not commit gives it back.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64) bool {
	ref := tx.Read(&t.root)
	if ref == arena.Nil {
		r := tx.Alloc(t.ar, k, v)
		t.node(r).Balance().SetPlain(black)
		tx.Write(&t.root, r)
		return true
	}
	var parent arena.Ref
	var goLeft bool
	for ref != arena.Nil {
		n := t.node(ref)
		key := tx.Read(&n.Key)
		if k == key {
			return false
		}
		parent = ref
		goLeft = k < key
		if goLeft {
			ref = tx.Read(&n.L)
		} else {
			ref = tx.Read(&n.R)
		}
	}
	x := tx.Alloc(t.ar, k, v)
	xn := t.node(x)
	xn.Balance().SetPlain(red)
	xn.Parent().SetPlain(arena.Nil)
	tx.Write(xn.Parent(), parent)
	if goLeft {
		tx.Write(&t.node(parent).L, x)
	} else {
		tx.Write(&t.node(parent).R, x)
	}
	t.fixAfterInsertion(tx, x)
	return true
}

// SetTx maps k to v within the enclosing transaction regardless of whether
// k is present (an upsert): a present node's value is overwritten in
// place, an absent key inserts. It is how the transaction coordinator
// (internal/ftx) applies a put of a key it did not find present. A present
// key costs one lookup and one value write; an absent key pays the lookup
// plus InsertTx's descent.
func (t *Tree) SetTx(tx *stm.Tx, k, v uint64) {
	if w, ok := t.ValTx(tx, k); ok {
		tx.Write(w, v)
		return
	}
	t.InsertTx(tx, k, v)
}

func (t *Tree) fixAfterInsertion(tx *stm.Tx, x arena.Ref) {
	for x != arena.Nil && x != tx.Read(&t.root) && t.colorOf(tx, t.parentOf(tx, x)) == red {
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
	t.setColor(tx, tx.Read(&t.root), black)
}

// Delete removes k, unlinking and rebalancing in the same transaction.
func (t *Tree) Delete(th *stm.Thread, k uint64) bool {
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.DeleteTx(tx, k) })
	return ok
}

// DeleteTx is the composable form of Delete.
func (t *Tree) DeleteTx(tx *stm.Tx, k uint64) bool {
	p := t.lookup(tx, k)
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
			tx.Write(&t.root, replacement)
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
		tx.Write(&t.root, arena.Nil)
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
	tx.Retire(t.ar, p)
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
	for x != tx.Read(&t.root) && t.colorOf(tx, x) == black {
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
				x = tx.Read(&t.root)
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
				x = tx.Read(&t.root)
			}
		}
	}
	t.setColor(tx, x, black)
}

// Size counts elements in one transaction.
func (t *Tree) Size(th *stm.Thread) int {
	var c int
	t.atomic(th, func(tx *stm.Tx) {
		c = 0
		t.walk(tx, tx.Read(&t.root), func(*arena.Node) { c++ })
	})
	return c
}

// Keys returns the sorted key set in one transaction.
func (t *Tree) Keys(th *stm.Thread) []uint64 {
	var out []uint64
	t.atomic(th, func(tx *stm.Tx) {
		out = out[:0]
		t.walk(tx, tx.Read(&t.root), func(n *arena.Node) {
			out = append(out, tx.Read(&n.Key))
		})
	})
	return out
}

func (t *Tree) walk(tx *stm.Tx, ref arena.Ref, visit func(*arena.Node)) {
	if ref == arena.Nil {
		return
	}
	n := t.node(ref)
	t.walk(tx, tx.Read(&n.L), visit)
	visit(n)
	t.walk(tx, tx.Read(&n.R), visit)
}

// Range visits every element with key in [lo, hi] (inclusive) in ascending
// order; fn returning false stops the scan. It reports whether the scan ran
// to the end of the interval. The interval is snapshotted in one
// transaction and fn runs after it commits — once per element, never from
// an aborted attempt — so fn may accumulate state freely.
func (t *Tree) Range(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool {
	var buf [][2]uint64
	t.atomic(th, func(tx *stm.Tx) {
		buf = buf[:0]
		t.RangeTx(tx, lo, hi, func(k, v uint64) bool {
			buf = append(buf, [2]uint64{k, v})
			return true
		})
	})
	for _, e := range buf {
		if !fn(e[0], e[1]) {
			return false
		}
	}
	return true
}

// RangeTx is the composable form of Range. Keys are transactional in this
// tree (deletion copies the successor's key in place), so the bounded
// traversal reads every visited key through the STM.
func (t *Tree) RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	return t.rangeWalk(tx, tx.Read(&t.root), lo, hi, fn)
}

func (t *Tree) rangeWalk(tx *stm.Tx, ref arena.Ref, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if ref == arena.Nil {
		return true
	}
	n := t.node(ref)
	k := tx.Read(&n.Key)
	if lo < k {
		if !t.rangeWalk(tx, tx.Read(&n.L), lo, hi, fn) {
			return false
		}
	}
	if lo <= k && k <= hi {
		if !fn(k, tx.Read(&n.Val)) {
			return false
		}
	}
	if k < hi {
		if !t.rangeWalk(tx, tx.Read(&n.R), lo, hi, fn) {
			return false
		}
	}
	return true
}

// CheckInvariants verifies (plain reads, quiescent use) the BST property,
// parent-pointer consistency, and the red-black invariants: the root is
// black, no red node has a red child, and every root-to-leaf path crosses
// the same number of black nodes.
func (t *Tree) CheckInvariants() error {
	root := t.root.Plain()
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
