package txmap

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// Coupled is the layer of the coupled baselines (the red-black and AVL
// trees): a Base plus what both share — a root word over a binary search
// tree of arena nodes, their lookup, upsert and range scan. Their deletes
// copy a two-child node's in-order successor into it, so keys are
// transactional and every visited key is read through the STM. For the
// same reason a Coupled tree never runs elastic: a traversal whose earlier
// reads were cut can mis-route undetectably, and rebalancing writes
// computed from cut reads can commit structural corruption.
type Coupled struct {
	Base
	Nodes *arena.Arena // the tree's nodes
	Root  stm.Word     // arena.Ref of the root node, arena.Nil when empty
}

// Init binds c to the tree embedding it and the domain it lives in, and
// gives it an empty arena.
func (c *Coupled) Init(tr Tree, s *stm.STM) {
	c.Nodes = arena.New()
	c.Base.Init(tr, s, false)
}

// Arena exposes the node arena for instrumentation.
func (c *Coupled) Arena() *arena.Arena { return c.Nodes }

// Lookup returns the node holding k in tx's snapshot, or arena.Nil.
func (c *Coupled) Lookup(tx *stm.Tx, k uint64) arena.Ref {
	ref := tx.Read(&c.Root)
	for ref != arena.Nil {
		n := c.Nodes.Get(ref)
		key := tx.Read(&n.Key)
		if k == key {
			return ref
		}
		ref = tx.Read(n.Child(k > key))
	}
	return arena.Nil
}

// ValTx returns the word holding k's value in tx's snapshot, or false when
// k is absent. A delete of a node with two children moves its successor's
// key and value into it: a caller that writes the word later in tx must do
// so before any DeleteTx of the same transaction.
func (c *Coupled) ValTx(tx *stm.Tx, k uint64) (*stm.Word, bool) {
	ref := c.Lookup(tx, k)
	if ref == arena.Nil {
		return nil, false
	}
	return &c.Nodes.Get(ref).Val, true
}

// SetTx maps k to v within the enclosing transaction regardless of whether
// k is present (an upsert): a present node's value is overwritten in place,
// an absent key takes the tree's InsertTx. A present key costs one lookup
// and one value write; an absent key pays the lookup plus InsertTx's
// descent.
func (c *Coupled) SetTx(tx *stm.Tx, k, v uint64) {
	if w, ok := c.ValTx(tx, k); ok {
		tx.Write(w, v)
		return
	}
	c.tr.InsertTx(tx, k, v)
}

// RangeTx visits, in ascending order, every element with key in [lo, hi]
// (inclusive); fn returning false stops the scan, and RangeTx then reports
// false. It is the composable form of Range: fn runs inside tx and runs
// again when tx retries. The traversal prunes every subtree whose keys
// cannot meet the interval.
func (c *Coupled) RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	return c.rangeWalk(tx, tx.Read(&c.Root), lo, hi, fn)
}

func (c *Coupled) rangeWalk(tx *stm.Tx, ref arena.Ref, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if ref == arena.Nil {
		return true
	}
	n := c.Nodes.Get(ref)
	k := tx.Read(&n.Key)
	if lo < k && !c.rangeWalk(tx, tx.Read(&n.L), lo, hi, fn) {
		return false
	}
	if lo <= k && k <= hi && !fn(k, tx.Read(&n.Val)) {
		return false
	}
	if k < hi && !c.rangeWalk(tx, tx.Read(&n.R), lo, hi, fn) {
		return false
	}
	return true
}
