package vacation

import (
	"math/rand"

	"repro/internal/stm"
)

// Config carries the STAMP vacation workload parameters. The paper runs the
// two official presets ("low contention" and "high contention") with the
// default, 8x and 16x transaction counts (Fig. 6).
type Config struct {
	// NumQueryPerTx (-n) is the maximum number of table queries one
	// make-reservation or update-tables transaction performs.
	NumQueryPerTx int
	// QueryPercent (-q) is the percentage of relations touched by queries;
	// it defines QueryRange.
	QueryPercent int
	// UserPercent (-u) is the percentage of user transactions
	// (make-reservation); the remainder splits evenly between
	// delete-customer and update-tables.
	UserPercent int
	// NumRelations (-r) is the number of rows initially loaded per table.
	NumRelations int
	// NumTransactions (-t) is the total number of client transactions.
	NumTransactions int
}

// QueryRange returns the id range queries draw from.
func (c Config) QueryRange() int {
	qr := c.NumRelations * c.QueryPercent / 100
	if qr < 1 {
		qr = 1
	}
	return qr
}

// LowContention returns the STAMP "-n2 -q90 -u98" preset scaled by the
// given relation count and transaction count.
func LowContention(relations, transactions int) Config {
	return Config{NumQueryPerTx: 2, QueryPercent: 90, UserPercent: 98,
		NumRelations: relations, NumTransactions: transactions}
}

// HighContention returns the STAMP "-n4 -q60 -u90" preset.
func HighContention(relations, transactions int) Config {
	return Config{NumQueryPerTx: 4, QueryPercent: 60, UserPercent: 90,
		NumRelations: relations, NumTransactions: transactions}
}

// Populate loads the database exactly as STAMP's initializeManager: for
// every table, each id in [1, NumRelations] gets numTotal = (rand%5+1)*100
// units at price rand%5*10+50, and every id becomes a customer. As in
// STAMP, the ids are inserted in shuffled order (sorted insertion would
// degenerate the never-rebalancing tree before the benchmark starts).
func Populate(m *Manager, th *stm.Thread, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for t := Car; t < numResTypes; t++ {
		for _, i := range rng.Perm(cfg.NumRelations) {
			id := uint64(i + 1)
			num := int64(rng.Intn(5)+1) * 100
			price := int64(rng.Intn(5)*10 + 50)
			m.Atomic(th, func(tx *stm.Tx) { m.AddReservation(tx, t, id, num, price) })
		}
	}
	for _, i := range rng.Perm(cfg.NumRelations) {
		id := uint64(i + 1)
		m.Atomic(th, func(tx *stm.Tx) { m.AddCustomer(tx, id) })
	}
}

// ActionCounts tallies what a client executed (for reporting).
type ActionCounts struct {
	MakeReservation uint64
	DeleteCustomer  uint64
	UpdateTables    uint64
}

// Total returns the number of transactions executed.
func (a ActionCounts) Total() uint64 {
	return a.MakeReservation + a.DeleteCustomer + a.UpdateTables
}

// Client executes vacation transactions against a Manager from one thread.
type Client struct {
	m   *Manager
	th  *stm.Thread
	rng *rand.Rand
	cfg Config

	// The current action's plan, drawn before its transaction so that
	// every attempt replays the same queries (the STAMP client draws
	// outside TM_BEGIN too), and the three action bodies, bound once in
	// NewClient: a warmed-up client allocates nothing per transaction.
	customerID uint64
	plan       []query
	makeBody   func(*stm.Tx)
	deleteBody func(*stm.Tx)
	updateBody func(*stm.Tx)

	Counts ActionCounts
}

// query is one planned table access: make-reservation reads t/id,
// update-tables adds (add) or removes 100 units of t/id at price.
type query struct {
	t     ResType
	id    uint64
	add   bool
	price int64
}

// NewClient creates a client with its own deterministic random stream.
func NewClient(m *Manager, th *stm.Thread, cfg Config, seed int64) *Client {
	c := &Client{m: m, th: th, rng: rand.New(rand.NewSource(seed)), cfg: cfg,
		plan: make([]query, 0, cfg.NumQueryPerTx)}
	c.makeBody, c.deleteBody, c.updateBody = c.makeReservationTx, c.deleteCustomerTx, c.updateTablesTx
	return c
}

// Run executes n client transactions, choosing actions with STAMP's
// distribution: UserPercent% make-reservation, and the remainder split
// evenly between delete-customer and update-tables.
func (c *Client) Run(n int) {
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

// makeReservation queries up to NumQueryPerTx random resources, finds the
// highest-priced available one per type, then registers the customer and
// books those maxima — all in one transaction (STAMP ACTION_MAKE_RESERVATION).
func (c *Client) makeReservation() {
	c.Counts.MakeReservation++
	qr := c.cfg.QueryRange()
	c.plan = c.plan[:c.rng.Intn(c.cfg.NumQueryPerTx)+1]
	c.customerID = uint64(c.rng.Intn(qr) + 1)
	for i := range c.plan {
		c.plan[i].t = ResType(c.rng.Intn(int(numResTypes)))
		c.plan[i].id = uint64(c.rng.Intn(qr) + 1)
	}
	c.m.Atomic(c.th, c.makeBody)
}

func (c *Client) makeReservationTx(tx *stm.Tx) {
	maxPrice := [numResTypes]int64{-1, -1, -1}
	var maxID [numResTypes]uint64
	for _, q := range c.plan {
		if c.m.QueryNumFree(tx, q.t, q.id) > 0 {
			if price := c.m.QueryPrice(tx, q.t, q.id); price > maxPrice[q.t] {
				maxPrice[q.t] = price
				maxID[q.t] = q.id
			}
		}
	}
	added := false
	for t := Car; t < numResTypes; t++ {
		if maxPrice[t] < 0 {
			continue
		}
		if !added { // idempotent when already present
			added = true
			c.m.AddCustomer(tx, c.customerID)
		}
		c.m.Reserve(tx, c.customerID, t, maxID[t])
	}
}

// deleteCustomer computes the customer's bill and, if the customer exists,
// cancels everything and removes the row (STAMP ACTION_DELETE_CUSTOMER).
func (c *Client) deleteCustomer() {
	c.Counts.DeleteCustomer++
	c.customerID = uint64(c.rng.Intn(c.cfg.QueryRange()) + 1)
	c.m.Atomic(c.th, c.deleteBody)
}

func (c *Client) deleteCustomerTx(tx *stm.Tx) {
	if bill := c.m.QueryCustomerBill(tx, c.customerID); bill >= 0 {
		c.m.DeleteCustomer(tx, c.customerID)
	}
}

// updateTables adds or removes units of random resources (STAMP
// ACTION_UPDATE_TABLES).
func (c *Client) updateTables() {
	c.Counts.UpdateTables++
	qr := c.cfg.QueryRange()
	c.plan = c.plan[:c.rng.Intn(c.cfg.NumQueryPerTx)+1]
	for i := range c.plan {
		c.plan[i] = query{
			t:     ResType(c.rng.Intn(int(numResTypes))),
			id:    uint64(c.rng.Intn(qr) + 1),
			add:   c.rng.Intn(2) == 0,
			price: int64(c.rng.Intn(5)*10 + 50),
		}
	}
	c.m.Atomic(c.th, c.updateBody)
}

func (c *Client) updateTablesTx(tx *stm.Tx) {
	for _, q := range c.plan {
		if q.add {
			c.m.AddReservation(tx, q.t, q.id, 100, q.price)
		} else {
			c.m.DeleteReservation(tx, q.t, q.id, 100)
		}
	}
}
