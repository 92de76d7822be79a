package vacation

import (
	"fmt"
	"math/rand"
)

// This file is the bare sequential implementation of vacation: identical
// client logic over plain Go maps with no synchronization at all. It is the
// tests' reference: driven from the same seeds as one Client, it must end
// with the same database, row for row (TestSeqMatchesConcurrentSingleClient).
// It is not Fig. 6's baseline, which is the red-black tree at one thread.

type seqReservation struct {
	used, free, total, price int64
}

type seqCustomer struct {
	res map[uint64]int64 // infoKey -> price paid
}

// SeqManager is the unsynchronized travel database.
type SeqManager struct {
	tables [numResTypes]map[uint64]*seqReservation
	cust   map[uint64]*seqCustomer
}

// NewSeqManager creates an empty sequential database.
func NewSeqManager() *SeqManager {
	m := &SeqManager{cust: map[uint64]*seqCustomer{}}
	for i := range m.tables {
		m.tables[i] = map[uint64]*seqReservation{}
	}
	return m
}

// PopulateSeq mirrors Populate for the sequential database (same seed gives
// the same initial contents).
func PopulateSeq(m *SeqManager, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for t := Car; t < numResTypes; t++ {
		for _, i := range rng.Perm(cfg.NumRelations) {
			num := int64(rng.Intn(5)+1) * 100
			price := int64(rng.Intn(5)*10 + 50)
			m.addReservation(t, uint64(i+1), num, price)
		}
	}
	for _, i := range rng.Perm(cfg.NumRelations) {
		m.addCustomer(uint64(i + 1))
	}
}

func (m *SeqManager) addReservation(t ResType, id uint64, num, price int64) bool {
	r, ok := m.tables[t][id]
	if !ok {
		if num < 1 || price < 0 {
			return false
		}
		m.tables[t][id] = &seqReservation{free: num, total: num, price: price}
		return true
	}
	if r.free+num < 0 {
		return false
	}
	r.free += num
	r.total += num
	if r.total == 0 {
		delete(m.tables[t], id)
		return true
	}
	if price >= 0 {
		r.price = price
	}
	return true
}

func (m *SeqManager) addCustomer(id uint64) bool {
	if _, ok := m.cust[id]; ok {
		return false
	}
	m.cust[id] = &seqCustomer{res: map[uint64]int64{}}
	return true
}

func (m *SeqManager) reserve(customerID uint64, t ResType, id uint64) bool {
	c, ok := m.cust[customerID]
	if !ok {
		return false
	}
	r, ok := m.tables[t][id]
	if !ok || r.free < 1 {
		return false
	}
	key := infoKey(t, id)
	if _, dup := c.res[key]; dup {
		return false
	}
	r.free--
	r.used++
	c.res[key] = r.price
	return true
}

func (m *SeqManager) deleteCustomer(id uint64) bool {
	c, ok := m.cust[id]
	if !ok {
		return false
	}
	for key := range c.res {
		t, resID := splitInfoKey(key)
		if r, ok := m.tables[t][resID]; ok {
			r.used--
			r.free++
		}
	}
	delete(m.cust, id)
	return true
}

func (m *SeqManager) customerBill(id uint64) int64 {
	c, ok := m.cust[id]
	if !ok {
		return -1
	}
	var bill int64
	for _, p := range c.res {
		bill += p
	}
	return bill
}

// SeqClient replays the client action stream sequentially.
type SeqClient struct {
	m      *SeqManager
	rng    *rand.Rand
	cfg    Config
	Counts ActionCounts
}

// NewSeqClient mirrors NewClient; the same seed yields the same actions.
func NewSeqClient(m *SeqManager, cfg Config, seed int64) *SeqClient {
	return &SeqClient{m: m, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Run executes n transactions sequentially.
func (c *SeqClient) Run(n int) {
	for i := 0; i < n; i++ {
		pct := c.rng.Intn(100)
		switch {
		case pct < c.cfg.UserPercent:
			c.makeReservation()
		case pct < c.cfg.UserPercent+(100-c.cfg.UserPercent)/2:
			c.deleteCustomer()
		default:
			c.updateTables()
		}
	}
}

func (c *SeqClient) makeReservation() {
	c.Counts.MakeReservation++
	qr := c.cfg.QueryRange()
	numQuery := c.rng.Intn(c.cfg.NumQueryPerTx) + 1
	customerID := uint64(c.rng.Intn(qr) + 1)
	maxPrice := [numResTypes]int64{-1, -1, -1}
	var maxID [numResTypes]uint64
	for n := 0; n < numQuery; n++ {
		t := ResType(c.rng.Intn(int(numResTypes)))
		id := uint64(c.rng.Intn(qr) + 1)
		if r, ok := c.m.tables[t][id]; ok && r.free > 0 && r.price > maxPrice[t] {
			maxPrice[t] = r.price
			maxID[t] = id
		}
	}
	added := false
	for t := Car; t < numResTypes; t++ {
		if maxPrice[t] < 0 {
			continue
		}
		if !added {
			added = true
			c.m.addCustomer(customerID)
		}
		c.m.reserve(customerID, t, maxID[t])
	}
}

func (c *SeqClient) deleteCustomer() {
	c.Counts.DeleteCustomer++
	customerID := uint64(c.rng.Intn(c.cfg.QueryRange()) + 1)
	if c.m.customerBill(customerID) >= 0 {
		c.m.deleteCustomer(customerID)
	}
}

func (c *SeqClient) updateTables() {
	c.Counts.UpdateTables++
	qr := c.cfg.QueryRange()
	numUpdate := c.rng.Intn(c.cfg.NumQueryPerTx) + 1
	for n := 0; n < numUpdate; n++ {
		t := ResType(c.rng.Intn(int(numResTypes)))
		id := uint64(c.rng.Intn(qr) + 1)
		doAdd := c.rng.Intn(2) == 0
		price := int64(c.rng.Intn(5)*10 + 50)
		if doAdd {
			c.m.addReservation(t, id, 100, price)
		} else {
			c.m.addReservation(t, id, -100, -1)
		}
	}
}

// CheckSeqConsistency verifies the sequential database's accounting, so the
// reference itself is testable.
func (m *SeqManager) CheckSeqConsistency() error {
	held := map[uint64]int64{}
	for _, c := range m.cust {
		for key := range c.res {
			held[key]++
		}
	}
	for t := Car; t < numResTypes; t++ {
		for id, r := range m.tables[t] {
			if r.used+r.free != r.total {
				return fmt.Errorf("%v %d: used %d + free %d != total %d", t, id, r.used, r.free, r.total)
			}
			if held[infoKey(t, id)] != r.used {
				return fmt.Errorf("%v %d: used %d but %d holders", t, id, r.used, held[infoKey(t, id)])
			}
			delete(held, infoKey(t, id))
		}
	}
	for key, n := range held {
		if n > 0 {
			t, id := splitInfoKey(key)
			return fmt.Errorf("%v %d held but row missing", t, id)
		}
	}
	return nil
}
