package vacation

import (
	"sync"
	"testing"

	"repro/internal/stm"
	"repro/internal/trees"
)

func smallCfg() Config { return HighContention(64, 400) }

func TestPopulateAndConsistency(t *testing.T) {
	s := stm.New()
	m := NewManager(s, trees.SFOpt)
	th := s.NewThread()
	cfg := smallCfg()
	Populate(m, th, cfg, 1)
	for tt := Car; tt < numResTypes; tt++ {
		if got := m.Table(tt).Size(th); got != cfg.NumRelations {
			t.Fatalf("%v table size = %d, want %d", tt, got, cfg.NumRelations)
		}
	}
	if got := m.Customers().Size(th); got != cfg.NumRelations {
		t.Fatalf("customers = %d", got)
	}
	if err := m.CheckConsistency(th); err != nil {
		t.Fatal(err)
	}
}

func TestManagerPrimitives(t *testing.T) {
	s := stm.New()
	m := NewManager(s, trees.SF)
	th := s.NewThread()

	th.Atomic(func(tx *stm.Tx) {
		if m.AddReservation(tx, Car, 1, 0, 50) {
			t.Error("zero-unit creation must fail")
		}
		if m.AddReservation(tx, Car, 1, 5, -1) {
			t.Error("negative-price creation must fail")
		}
		if !m.AddReservation(tx, Car, 1, 5, 50) {
			t.Error("creation failed")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if got := m.QueryNumFree(tx, Car, 1); got != 5 {
			t.Errorf("free = %d, want 5", got)
		}
		if got := m.QueryPrice(tx, Car, 1); got != 50 {
			t.Errorf("price = %d, want 50", got)
		}
		if got := m.QueryNumFree(tx, Car, 2); got != -1 {
			t.Errorf("absent free = %d, want -1", got)
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if m.DeleteReservation(tx, Car, 1, 6) {
			t.Error("over-delete must fail")
		}
		if !m.DeleteReservation(tx, Car, 1, 5) {
			t.Error("full delete failed")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if m.QueryNumFree(tx, Car, 1) != -1 {
			t.Error("row should be gone after total reached 0")
		}
	})
}

func TestReserveAndCancelFlow(t *testing.T) {
	s := stm.New()
	m := NewManager(s, trees.SFOpt)
	th := s.NewThread()
	th.Atomic(func(tx *stm.Tx) {
		m.AddReservation(tx, Flight, 7, 1, 80)
		m.AddCustomer(tx, 42)
	})
	th.Atomic(func(tx *stm.Tx) {
		if m.Reserve(tx, 41, Flight, 7) {
			t.Error("reserve for unknown customer succeeded")
		}
		if m.Reserve(tx, 42, Flight, 8) {
			t.Error("reserve of unknown resource succeeded")
		}
		if !m.Reserve(tx, 42, Flight, 7) {
			t.Error("reserve failed")
		}
		if m.Reserve(tx, 42, Flight, 7) {
			t.Error("duplicate reserve by same customer succeeded")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if got := m.QueryNumFree(tx, Flight, 7); got != 0 {
			t.Errorf("free after reserve = %d", got)
		}
		if got := m.QueryCustomerBill(tx, 42); got != 80 {
			t.Errorf("bill = %d, want 80", got)
		}
	})
	// No free units left: another customer cannot book.
	th.Atomic(func(tx *stm.Tx) {
		m.AddCustomer(tx, 43)
		if m.Reserve(tx, 43, Flight, 7) {
			t.Error("overbooked")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if !m.CancelReservation(tx, 42, Flight, 7) {
			t.Error("cancel failed")
		}
		if m.CancelReservation(tx, 42, Flight, 7) {
			t.Error("double cancel succeeded")
		}
	})
	if err := m.CheckConsistency(th); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCustomerReleasesUnits(t *testing.T) {
	s := stm.New()
	m := NewManager(s, trees.RB)
	th := s.NewThread()
	th.Atomic(func(tx *stm.Tx) {
		m.AddReservation(tx, Room, 1, 2, 60)
		m.AddCustomer(tx, 9)
		m.Reserve(tx, 9, Room, 1)
	})
	th.Atomic(func(tx *stm.Tx) {
		if !m.DeleteCustomer(tx, 9) {
			t.Error("delete customer failed")
		}
		if m.DeleteCustomer(tx, 9) {
			t.Error("double delete succeeded")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if got := m.QueryNumFree(tx, Room, 1); got != 2 {
			t.Errorf("units not released: free = %d, want 2", got)
		}
	})
	if err := m.CheckConsistency(th); err != nil {
		t.Fatal(err)
	}
}

// TestSeqMatchesConcurrentSingleClient drives the transactional manager and
// the sequential reference with identical seeds from one thread; the final
// databases must agree row for row.
func TestSeqMatchesConcurrentSingleClient(t *testing.T) {
	for _, kind := range []trees.Kind{trees.SF, trees.SFOpt, trees.RB, trees.AVL, trees.NR} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := smallCfg()
			s := stm.New()
			m := NewManager(s, kind)
			th := s.NewThread()
			Populate(m, th, cfg, 1)
			cl := NewClient(m, th, cfg, 2)
			cl.Run(cfg.NumTransactions)

			sm := NewSeqManager()
			PopulateSeq(sm, cfg, 1)
			scl := NewSeqClient(sm, cfg, 2)
			scl.Run(cfg.NumTransactions)

			if cl.Counts != scl.Counts {
				t.Fatalf("action mix diverged: %+v vs %+v", cl.Counts, scl.Counts)
			}
			if err := m.CheckConsistency(th); err != nil {
				t.Fatal(err)
			}
			if err := sm.CheckSeqConsistency(); err != nil {
				t.Fatal(err)
			}
			// Row-for-row table comparison.
			for tt := Car; tt < numResTypes; tt++ {
				keys := m.Table(tt).Keys(th)
				if len(keys) != len(sm.tables[tt]) {
					t.Fatalf("%v table sizes: tx %d, seq %d", tt, len(keys), len(sm.tables[tt]))
				}
				for _, id := range keys {
					sr, ok := sm.tables[tt][id]
					if !ok {
						t.Fatalf("%v %d missing from sequential", tt, id)
					}
					th.Atomic(func(tx *stm.Tx) {
						h, _ := m.Table(tt).GetTx(tx, id)
						r := m.reservation(h)
						if int64(tx.Read(r.used())) != sr.used ||
							int64(tx.Read(r.free())) != sr.free ||
							int64(tx.Read(r.total())) != sr.total ||
							int64(tx.Read(r.price())) != sr.price {
							t.Errorf("%v %d diverged: tx(%d,%d,%d,%d) seq(%d,%d,%d,%d)",
								tt, id,
								tx.Read(r.used()), tx.Read(r.free()), tx.Read(r.total()), tx.Read(r.price()),
								sr.used, sr.free, sr.total, sr.price)
						}
					})
				}
			}
			// Customers and bills.
			custKeys := m.Customers().Keys(th)
			if len(custKeys) != len(sm.cust) {
				t.Fatalf("customers: tx %d, seq %d", len(custKeys), len(sm.cust))
			}
			for _, id := range custKeys {
				var bill int64
				th.Atomic(func(tx *stm.Tx) { bill = m.QueryCustomerBill(tx, id) })
				if want := sm.customerBill(id); bill != want {
					t.Fatalf("customer %d bill %d, want %d", id, bill, want)
				}
			}
		})
	}
}

// TestConcurrentClientsConsistency runs several clients in parallel on every
// tree kind (with maintenance active for the SF trees) and checks the
// cross-table accounting afterwards.
func TestConcurrentClientsConsistency(t *testing.T) {
	for _, kind := range []trees.Kind{trees.SF, trees.SFOpt, trees.RB, trees.AVL, trees.NR} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := HighContention(48, 0)
			s := stm.New()
			m := NewManager(s, kind)
			setup := s.NewThread()
			Populate(m, setup, cfg, 3)
			stop := m.StartMaintenance()
			const clients = 4
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				cl := NewClient(m, s.NewThread(), cfg, int64(100+i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl.Run(250)
				}()
			}
			wg.Wait()
			stop()
			if err := m.CheckConsistency(setup); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConfigPresets(t *testing.T) {
	lo := LowContention(1000, 10)
	if lo.NumQueryPerTx != 2 || lo.QueryPercent != 90 || lo.UserPercent != 98 {
		t.Fatalf("low preset drifted: %+v", lo)
	}
	hi := HighContention(1000, 10)
	if hi.NumQueryPerTx != 4 || hi.QueryPercent != 60 || hi.UserPercent != 90 {
		t.Fatalf("high preset drifted: %+v", hi)
	}
	if lo.QueryRange() != 900 || hi.QueryRange() != 600 {
		t.Fatalf("query ranges: %d, %d", lo.QueryRange(), hi.QueryRange())
	}
	if (Config{NumRelations: 10, QueryPercent: 1}).QueryRange() != 1 {
		t.Fatal("query range must be at least 1")
	}
}

func TestResTypeString(t *testing.T) {
	if Car.String() != "car" || Flight.String() != "flight" || Room.String() != "room" {
		t.Fatal("ResType names")
	}
	if ResType(9).String() != "?" {
		t.Fatal("unknown ResType")
	}
}

func TestManagerAtomicDemotesElastic(t *testing.T) {
	// A vacation database over a non-elastic-safe tree must run composed
	// transactions in CTL even when the domain defaults to elastic.
	s := stm.New(stm.WithMode(stm.Elastic))
	m := NewManager(s, trees.RB)
	th := s.NewThread()
	var mode stm.Mode
	m.Atomic(th, func(tx *stm.Tx) { mode = tx.Mode() })
	if mode != stm.CTL {
		t.Fatalf("mode = %v, want CTL", mode)
	}
	// And over the portable SF tree the elasticity is preserved.
	m2 := NewManager(s, trees.SF)
	m2.Atomic(th, func(tx *stm.Tx) { mode = tx.Mode() })
	if mode != stm.Elastic {
		t.Fatalf("mode = %v, want Elastic", mode)
	}
}

func TestVacationOnElasticDomain(t *testing.T) {
	// End-to-end: the whole application on an elastic STM domain with the
	// portable SF tree, then the conservation check.
	s := stm.New(stm.WithMode(stm.Elastic))
	m := NewManager(s, trees.SF)
	th := s.NewThread()
	cfg := HighContention(32, 0)
	Populate(m, th, cfg, 11)
	cl := NewClient(m, th, cfg, 12)
	cl.Run(300)
	if err := m.CheckConsistency(th); err != nil {
		t.Fatal(err)
	}
}

// TestClientActionsZeroAllocs: a warmed-up client's transactions allocate
// nothing. Its plan slice and its three action bodies are bound once in
// NewClient, and rows and list cells are arena nodes.
func TestClientActionsZeroAllocs(t *testing.T) {
	presets := []struct {
		name string
		cfg  Config
	}{{"high", HighContention(256, 0)}, {"low", LowContention(256, 0)}}
	for _, kind := range []trees.Kind{trees.RB, trees.SFOpt} {
		for _, p := range presets {
			t.Run(string(kind)+"/"+p.name, func(t *testing.T) {
				s := stm.New()
				m := NewManager(s, kind)
				th := s.NewThread()
				Populate(m, th, p.cfg, 1)
				cl := NewClient(m, th, p.cfg, 2)
				cl.Run(2000)
				if a := testing.AllocsPerRun(1000, func() { cl.Run(1) }); a != 0 {
					t.Fatalf("%.2f allocs per transaction, want 0", a)
				}
			})
		}
	}
}
