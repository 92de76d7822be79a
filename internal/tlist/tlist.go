// Package tlist implements a transactional sorted singly linked list, the
// substrate the vacation application uses for each customer's reservation
// list (STAMP's list_t). Entries map a uint64 key to a uint64 value and are
// kept in ascending key order, so all accesses compose with any enclosing
// transaction.
//
// An entry is an arena.Node of a caller-supplied arena, which many lists
// may share: an insert takes its node with stm.Tx.Alloc and a removal
// retires it with stm.Tx.Retire, so an attempt that does not commit gives
// its node back, and a removed entry is recycled once no operation that
// could still hold it is running (paper §3.4).
package tlist

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// An entry uses three words of its node: Key holds the key (immutable while
// the entry is linked, read with Plain), Val the value and L the Ref of the
// next entry (arena.Nil ends the list).

// List is a transactional sorted linked list: an arena and the word that
// holds the Ref of its first entry (arena.Nil when empty), which may be a
// word of another arena node. A List is a value that allocates nothing, so
// any transaction attempt may make one for a head it can reach.
type List struct {
	ar   *arena.Arena
	head *stm.Word
}

// New returns the list whose entries live in ar and whose first entry's
// Ref is held by head. A zeroed head is an empty list.
func New(ar *arena.Arena, head *stm.Word) List { return List{ar: ar, head: head} }

// locate returns the link to the first entry with key >= k (the head word
// or the predecessor's next link) and that entry's Ref, Nil at the end.
func (l List) locate(tx *stm.Tx, k uint64) (*stm.Word, arena.Ref) {
	link := l.head
	cur := tx.Read(link)
	for cur != arena.Nil {
		n := l.ar.Get(cur)
		if n.Key.Plain() >= k {
			break
		}
		link = &n.L
		cur = tx.Read(link)
	}
	return link, cur
}

// find returns the node holding k, or nil, and the link that leads to the
// first entry with key >= k.
func (l List) find(tx *stm.Tx, k uint64) (*stm.Word, arena.Ref, *arena.Node) {
	link, cur := l.locate(tx, k)
	if cur == arena.Nil {
		return link, cur, nil
	}
	if n := l.ar.Get(cur); n.Key.Plain() == k {
		return link, cur, n
	}
	return link, cur, nil
}

// insert links a new entry (k, v) at link, in front of next.
func (l List) insert(tx *stm.Tx, link *stm.Word, next arena.Ref, k, v uint64) {
	r := tx.Alloc(l.ar, k, v)
	l.ar.Get(r).L.SetPlain(next)
	tx.Write(link, r)
}

// InsertTx inserts (k, v) if k is absent; returns false when present.
func (l List) InsertTx(tx *stm.Tx, k, v uint64) bool {
	link, cur, n := l.find(tx, k)
	if n != nil {
		return false
	}
	l.insert(tx, link, cur, k, v)
	return true
}

// SetTx inserts (k, v) or overwrites the value when k is present.
func (l List) SetTx(tx *stm.Tx, k, v uint64) {
	link, cur, n := l.find(tx, k)
	if n != nil {
		tx.Write(&n.Val, v)
		return
	}
	l.insert(tx, link, cur, k, v)
}

// RemoveTx removes k; returns false when absent.
func (l List) RemoveTx(tx *stm.Tx, k uint64) bool {
	link, cur, n := l.find(tx, k)
	if n == nil {
		return false
	}
	tx.Write(link, tx.Read(&n.L))
	tx.Retire(l.ar, cur)
	return true
}

// GetTx returns the value at k.
func (l List) GetTx(tx *stm.Tx, k uint64) (uint64, bool) {
	if _, _, n := l.find(tx, k); n != nil {
		return tx.Read(&n.Val), true
	}
	return 0, false
}

// ContainsTx reports whether k is present.
func (l List) ContainsTx(tx *stm.Tx, k uint64) bool {
	_, ok := l.GetTx(tx, k)
	return ok
}

// LenTx counts the entries.
func (l List) LenTx(tx *stm.Tx) int {
	n := 0
	l.walk(tx, func(arena.Ref, *arena.Node) { n++ })
	return n
}

// KeysTx returns the keys in ascending order.
func (l List) KeysTx(tx *stm.Tx) []uint64 {
	var out []uint64
	l.walk(tx, func(_ arena.Ref, n *arena.Node) { out = append(out, n.Key.Plain()) })
	return out
}

// EachTx visits every (key, value) pair in ascending key order.
func (l List) EachTx(tx *stm.Tx, f func(k, v uint64)) {
	l.walk(tx, func(_ arena.Ref, n *arena.Node) { f(n.Key.Plain(), tx.Read(&n.Val)) })
}

// DrainTx empties the list: it visits every (key, value) pair in ascending
// key order, unlinks every entry and retires its node.
func (l List) DrainTx(tx *stm.Tx, f func(k, v uint64)) {
	l.walk(tx, func(r arena.Ref, n *arena.Node) {
		f(n.Key.Plain(), tx.Read(&n.Val))
		tx.Retire(l.ar, r)
	})
	tx.Write(l.head, arena.Nil)
}

// walk visits every entry in key order, reading only the links.
func (l List) walk(tx *stm.Tx, visit func(arena.Ref, *arena.Node)) {
	for cur := tx.Read(l.head); cur != arena.Nil; {
		n := l.ar.Get(cur)
		visit(cur, n)
		cur = tx.Read(&n.L)
	}
}

// RangeTx visits, in ascending key order, every entry whose key lies in
// [lo, hi] (both inclusive), calling fn(k, v) for each; fn returning false
// stops the scan. The sorted order lets the walk start from the first entry
// at or after lo (locate) and end at the first key above hi, so the read
// set covers only the prefix up to the end of the interval. RangeTx reports
// whether the scan ran to the end of the interval.
func (l List) RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	_, cur := l.locate(tx, lo)
	for cur != arena.Nil {
		n := l.ar.Get(cur)
		if n.Key.Plain() > hi {
			return true
		}
		if !fn(n.Key.Plain(), tx.Read(&n.Val)) {
			return false
		}
		cur = tx.Read(&n.L)
	}
	return true
}
