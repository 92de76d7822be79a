// Package vacation ports the STAMP travel-reservation application
// ("vacation") that the paper uses as its macro-benchmark (§5.5): an
// in-memory travel database with four tables — cars, flights, rooms and
// customers — each implemented as a tree-based directory, accessed by client
// transactions that compose several tree operations (the reusability the
// speculation-friendly tree is designed for).
//
// The port follows STAMP's manager.c/client.c structure: three client
// actions (make-reservation, delete-customer, update-tables), reservations
// with used/free/total/price counters, and customers owning a list of
// reservation records. Rows are arena nodes that a transaction allocates
// and retires like any tree node: a reservation whose total reaches zero
// and a deleted customer, with every cell of its list, go back to the
// arena through the committing thread's limbo (paper §3.4). Run is the one
// concurrent runner (Fig. 6, cmd/vacation); SeqManager, a plain sequential
// implementation, is the reference the tests compare the database against.
package vacation

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// ResType indexes the three reservable tables.
type ResType int

// Reservable tables, in STAMP order.
const (
	Car ResType = iota
	Flight
	Room
	numResTypes
)

// String names the type for reports.
func (t ResType) String() string {
	switch t {
	case Car:
		return "car"
	case Flight:
		return "flight"
	case Room:
		return "room"
	default:
		return "?"
	}
}

// Every row of the database is an arena.Node of the Manager's one arena,
// as are the cells of the customers' reservation lists; a directory maps an
// id to the Ref of its row. A row is allocated with stm.Tx.Alloc and, once
// unlinked, retired with stm.Tx.Retire. Its words:
//
//	word  reservation row   customer row
//	Key   id                id
//	Val   price             -
//	L     used units        head of the reservation list (tlist)
//	R     free units        -
//	Del   total units       -
//
// Key never changes while the row is linked (read with Plain).

// reservation is one row of a car/flight/room table, seen through its
// node's words.
type reservation arena.Node

func (r *reservation) used() *stm.Word  { return &r.L }
func (r *reservation) free() *stm.Word  { return &r.R }
func (r *reservation) total() *stm.Word { return &r.Del }
func (r *reservation) price() *stm.Word { return &r.Val }

// AddToTotal grows (or, negative delta, shrinks) the free pool; it fails
// when the shrink would exceed the currently free units (STAMP's
// reservation_addToTotal).
func (r *reservation) AddToTotal(tx *stm.Tx, delta int64) bool {
	free := int64(tx.Read(r.free()))
	if free+delta < 0 {
		return false
	}
	tx.Write(r.free(), uint64(free+delta))
	tx.Write(r.total(), uint64(int64(tx.Read(r.total()))+delta))
	return true
}

// Make consumes one free unit (STAMP's reservation_make).
func (r *reservation) Make(tx *stm.Tx) bool {
	free := tx.Read(r.free())
	if free < 1 {
		return false
	}
	tx.Write(r.free(), free-1)
	tx.Write(r.used(), tx.Read(r.used())+1)
	return true
}

// Cancel releases one used unit (STAMP's reservation_cancel).
func (r *reservation) Cancel(tx *stm.Tx) bool {
	used := tx.Read(r.used())
	if used < 1 {
		return false
	}
	tx.Write(r.used(), used-1)
	tx.Write(r.free(), tx.Read(r.free())+1)
	return true
}

// UpdatePrice sets the current price.
func (r *reservation) UpdatePrice(tx *stm.Tx, price uint64) {
	if tx.Read(r.price()) != price {
		tx.Write(r.price(), price)
	}
}
