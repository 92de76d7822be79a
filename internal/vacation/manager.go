package vacation

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/stm"
	"repro/internal/tlist"
	"repro/internal/trees"
)

// infoKey packs a reservation type and resource id into the key of a
// customer's reservation list; the value records the price paid, so the
// bill is reconstructible.
func infoKey(t ResType, id uint64) uint64 { return uint64(t)<<48 | id }

// splitInfoKey undoes infoKey.
func splitInfoKey(key uint64) (ResType, uint64) { return ResType(key >> 48), key & (1<<48 - 1) }

// Manager is the transactional travel database: four tree directories
// whose values are the Refs of rows in one arena. All methods taking a
// *stm.Tx compose into the caller's transaction; the paper's point is
// precisely that such composition is safe and efficient on a
// speculation-friendly tree.
type Manager struct {
	tables [numResTypes]trees.Map // car/flight/room directories
	cust   trees.Map              // customer directory

	// rows holds every row and every cell of the customers' reservation
	// lists (see the word layout in reservation.go).
	rows *arena.Arena
}

// NewManager creates an empty database whose four directories are trees of
// the given kind.
func NewManager(s *stm.STM, kind trees.Kind) *Manager {
	m := &Manager{rows: arena.New()}
	for i := range m.tables {
		m.tables[i] = trees.New(kind, s)
	}
	m.cust = trees.New(kind, s)
	return m
}

// StartMaintenance launches maintenance on every directory that has it,
// returning a function stopping them all.
func (m *Manager) StartMaintenance() (stop func()) {
	stops := make([]func(), 0, numResTypes+1)
	for i := range m.tables {
		stops = append(stops, trees.Start(m.tables[i]))
	}
	stops = append(stops, trees.Start(m.cust))
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// Atomic runs fn as one composed database transaction, demoting elastic
// mode when the underlying tree library does not tolerate cut reads
// (trees.Atomic). Clients must use it for every multi-operation action.
func (m *Manager) Atomic(th *stm.Thread, fn func(tx *stm.Tx)) {
	trees.Atomic(m.cust, th, fn)
}

// Table exposes one directory (for instrumentation).
func (m *Manager) Table(t ResType) trees.Map { return m.tables[t] }

// Customers exposes the customer directory (for instrumentation).
func (m *Manager) Customers() trees.Map { return m.cust }

// Rotations sums the rotations of the four directories (trees.Rotations;
// a kind that does not count them adds 0).
func (m *Manager) Rotations() uint64 {
	rot, _ := trees.Rotations(m.cust)
	for _, tbl := range m.tables {
		r, _ := trees.Rotations(tbl)
		rot += r
	}
	return rot
}

func (m *Manager) reservation(h uint64) *reservation { return (*reservation)(m.rows.Get(h)) }

// reservations is the reservation list of the customer row h.
func (m *Manager) reservations(h uint64) tlist.List { return tlist.New(m.rows, &m.rows.Get(h).L) }

// drop unlinks id's row h from directory tbl and retires it.
func (m *Manager) drop(tx *stm.Tx, tbl trees.Map, id, h uint64) bool {
	if !tbl.DeleteTx(tx, id) {
		return false
	}
	tx.Retire(m.rows, h)
	return true
}

// AddReservation adds num units at the given price to resource id of table
// t, creating the row if needed; with negative num it releases free units,
// dropping the row when its total reaches zero (STAMP's addReservation,
// which both manager_add<T> and manager_delete<T> funnel into).
func (m *Manager) AddReservation(tx *stm.Tx, t ResType, id uint64, num int64, price int64) bool {
	tbl := m.tables[t]
	h, ok := tbl.GetTx(tx, id)
	if !ok {
		// Row absent: only a genuine addition can create it.
		if num < 1 || price < 0 {
			return false
		}
		h = tx.Alloc(m.rows, id, uint64(price))
		r := m.reservation(h)
		r.free().SetPlain(uint64(num))
		r.total().SetPlain(uint64(num))
		return tbl.InsertTx(tx, id, h)
	}
	r := m.reservation(h)
	if !r.AddToTotal(tx, num) {
		return false
	}
	if tx.Read(r.total()) == 0 {
		return m.drop(tx, tbl, id, h)
	}
	if price >= 0 {
		r.UpdatePrice(tx, uint64(price))
	}
	return true
}

// DeleteReservation releases num free units of resource id (manager_delete<T>).
func (m *Manager) DeleteReservation(tx *stm.Tx, t ResType, id uint64, num int64) bool {
	return m.AddReservation(tx, t, id, -num, -1)
}

// QueryNumFree returns the number of free units of resource id, or -1 when
// the row is absent.
func (m *Manager) QueryNumFree(tx *stm.Tx, t ResType, id uint64) int64 {
	h, ok := m.tables[t].GetTx(tx, id)
	if !ok {
		return -1
	}
	return int64(tx.Read(m.reservation(h).free()))
}

// QueryPrice returns the current price of resource id, or -1 when absent.
func (m *Manager) QueryPrice(tx *stm.Tx, t ResType, id uint64) int64 {
	h, ok := m.tables[t].GetTx(tx, id)
	if !ok {
		return -1
	}
	return int64(tx.Read(m.reservation(h).price()))
}

// AddCustomer registers customer id; false when already present.
func (m *Manager) AddCustomer(tx *stm.Tx, id uint64) bool {
	if m.cust.ContainsTx(tx, id) {
		return false
	}
	return m.cust.InsertTx(tx, id, tx.Alloc(m.rows, id, 0))
}

// QueryCustomerBill sums the prices of the customer's reservations, or -1
// when the customer does not exist.
func (m *Manager) QueryCustomerBill(tx *stm.Tx, id uint64) int64 {
	h, ok := m.cust.GetTx(tx, id)
	if !ok {
		return -1
	}
	var bill int64
	m.reservations(h).EachTx(tx, func(_, price uint64) {
		bill += int64(price)
	})
	return bill
}

// Reserve books one unit of resource id of table t for the customer: it
// consumes a free unit and appends a reservation record to the customer's
// list, undoing the consumption if the customer already holds the resource
// (STAMP's manager_reserve).
func (m *Manager) Reserve(tx *stm.Tx, customerID uint64, t ResType, id uint64) bool {
	ch, ok := m.cust.GetTx(tx, customerID)
	if !ok {
		return false
	}
	rh, ok := m.tables[t].GetTx(tx, id)
	if !ok {
		return false
	}
	r := m.reservation(rh)
	if !r.Make(tx) {
		return false
	}
	if !m.reservations(ch).InsertTx(tx, infoKey(t, id), tx.Read(r.price())) {
		// Already holds this resource: roll the unit back.
		if !r.Cancel(tx) {
			panic("vacation: cancel after failed info insert cannot fail")
		}
		return false
	}
	return true
}

// CancelReservation releases one unit the customer holds (manager_cancel).
func (m *Manager) CancelReservation(tx *stm.Tx, customerID uint64, t ResType, id uint64) bool {
	ch, ok := m.cust.GetTx(tx, customerID)
	if !ok {
		return false
	}
	rh, ok := m.tables[t].GetTx(tx, id)
	if !ok {
		return false
	}
	if !m.reservations(ch).RemoveTx(tx, infoKey(t, id)) {
		return false
	}
	return m.reservation(rh).Cancel(tx)
}

// DeleteCustomer cancels all of the customer's reservations and removes the
// customer row (STAMP's manager_deleteCustomer), retiring the row and every
// cell of its list.
func (m *Manager) DeleteCustomer(tx *stm.Tx, id uint64) bool {
	ch, ok := m.cust.GetTx(tx, id)
	if !ok {
		return false
	}
	m.reservations(ch).DrainTx(tx, func(key, _ uint64) {
		t, resID := splitInfoKey(key)
		if rh, ok := m.tables[t].GetTx(tx, resID); ok {
			m.reservation(rh).Cancel(tx)
		}
	})
	return m.drop(tx, m.cust, id, ch)
}

// CheckConsistency verifies, quiescently, the cross-table accounting
// invariants: every row has total = used + free, and for every resource the
// used count equals the number of customers holding it. It mirrors (and
// strengthens) STAMP's checkTables.
func (m *Manager) CheckConsistency(th *stm.Thread) error {
	held := map[uint64]uint64{} // infoKey -> number of holders
	for _, cid := range m.cust.Keys(th) {
		var err error
		th.Atomic(func(tx *stm.Tx) {
			h, ok := m.cust.GetTx(tx, cid)
			if !ok {
				err = fmt.Errorf("customer %d vanished during check", cid)
				return
			}
			m.reservations(h).EachTx(tx, func(key, _ uint64) {
				held[key]++
			})
		})
		if err != nil {
			return err
		}
	}
	for t := Car; t < numResTypes; t++ {
		for _, id := range m.tables[t].Keys(th) {
			var used, free, total uint64
			th.Atomic(func(tx *stm.Tx) {
				h, ok := m.tables[t].GetTx(tx, id)
				if !ok {
					return
				}
				r := m.reservation(h)
				used = tx.Read(r.used())
				free = tx.Read(r.free())
				total = tx.Read(r.total())
			})
			if used+free != total {
				return fmt.Errorf("%v %d: used %d + free %d != total %d", t, id, used, free, total)
			}
			if held[infoKey(t, id)] != used {
				return fmt.Errorf("%v %d: used %d but %d holders", t, id, used, held[infoKey(t, id)])
			}
			delete(held, infoKey(t, id))
		}
	}
	for key, n := range held {
		if n > 0 {
			t, id := splitInfoKey(key)
			return fmt.Errorf("%v %d held by %d customers but row missing", t, id, n)
		}
	}
	return nil
}
