package vacation

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
	"repro/internal/trees"
)

// TestRowChurnFreesRows: after Fig. 6's high-contention workload at 8x
// transactions, every node of the rows arena is a live row, a live
// customer or a cell reachable from one. Rows whose total reached zero,
// deleted customers with their lists, and the nodes of attempts that did
// not commit all went back to the arena once each client stepped its limbo.
func TestRowChurnFreesRows(t *testing.T) {
	for _, kind := range []trees.Kind{trees.RB, trees.SFOpt} {
		t.Run(string(kind), func(t *testing.T) {
			const clients, seed = 4, 42
			cfg := HighContention(1024, 8*4096)
			s := stm.New()
			m := NewManager(s, kind)
			setup := s.NewThread()
			Populate(m, setup, cfg, seed)
			stop := m.StartMaintenance()
			ths := make([]*stm.Thread, clients)
			var wg sync.WaitGroup
			for i := range ths {
				ths[i] = s.NewThread()
				cl := NewClient(m, ths[i], cfg, seed+int64(i)+1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl.Run(cfg.NumTransactions / clients)
				}()
			}
			wg.Wait()
			stop()
			for _, th := range ths {
				th.Reclaim()
				th.Reclaim()
			}
			rows := 0
			for tt := Car; tt < numResTypes; tt++ {
				rows += m.Table(tt).Size(setup)
			}
			customers := m.Customers().Keys(setup)
			cells := 0
			for _, id := range customers {
				setup.Atomic(func(tx *stm.Tx) {
					h, _ := m.cust.GetTx(tx, id)
					cells += m.reservations(h).LenTx(tx)
				})
			}
			want := uint64(rows + len(customers) + cells)
			if live := m.rows.Live(); live != want {
				t.Fatalf("%d nodes live, want %d: %d rows + %d customers + %d reachable cells (excess %d)",
					live, want, rows, len(customers), cells, live-want)
			}
		})
	}
}

// TestRecycledRowsNeverMisread: writers drop reservation rows to a total of
// zero and re-add them, and delete and re-add customers, stepping their
// limbo after every operation, so a retired row or cell is reused within a
// few writer operations. Readers look rows and customers up and yield
// between reads. A row the directory maps id to must carry Key id and keep
// used + free == total; a reader whose committed attempt saw anything else
// read a node that was freed and reused under it.
func TestRecycledRowsNeverMisread(t *testing.T) {
	const ids, writes = 8, 20000
	s := stm.New()
	m := NewManager(s, trees.RB)
	setup := s.NewThread()
	for id := uint64(1); id <= ids; id++ {
		setup.Atomic(func(tx *stm.Tx) {
			for tt := Car; tt < numResTypes; tt++ {
				m.AddReservation(tx, tt, id, 100, 50)
			}
			m.AddCustomer(tx, id)
		})
	}
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int, th *stm.Thread) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < writes; n++ {
				tt, id := ResType(rng.Intn(int(numResTypes))), uint64(rng.Intn(ids)+1)
				op, rid := rng.Intn(5), uint64(rng.Intn(ids)+1)
				m.Atomic(th, func(tx *stm.Tx) {
					switch op {
					case 0:
						m.DeleteReservation(tx, tt, id, 100)
					case 1:
						m.AddReservation(tx, tt, id, 100, 60)
					case 2:
						m.DeleteCustomer(tx, id)
					case 3:
						m.AddCustomer(tx, id)
					default:
						m.Reserve(tx, id, tt, rid)
					}
				})
				th.Reclaim()
				runtime.Gosched()
			}
		}(g, s.NewThread())
		readers.Add(1)
		go func(g int, th *stm.Thread) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			pause := func() {
				for y := 0; y < 4; y++ {
					runtime.Gosched()
				}
			}
			for !stop.Load() {
				tt, id := ResType(rng.Intn(int(numResTypes))), uint64(rng.Intn(ids)+1)
				var err error
				m.Atomic(th, func(tx *stm.Tx) {
					err = nil
					if h, ok := m.tables[tt].GetTx(tx, id); ok {
						r := m.reservation(h)
						pause()
						used := tx.Read(r.used())
						pause()
						free := tx.Read(r.free())
						pause()
						total := tx.Read(r.total())
						if key := r.Key.Plain(); key != id || used+free != total {
							err = fmt.Errorf("%v %d read row with Key %d, used %d + free %d, total %d",
								tt, id, key, used, free, total)
							return
						}
					}
					if h, ok := m.cust.GetTx(tx, id); ok {
						pause()
						if key := m.rows.Get(h).Key.Plain(); key != id {
							err = fmt.Errorf("customer %d read row with Key %d", id, key)
						}
					}
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g, s.NewThread())
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.rows.Reuses() == 0 {
		t.Fatal("no freed row was reused: the stress did not recycle")
	}
	if err := m.CheckConsistency(setup); err != nil {
		t.Fatal(err)
	}
}
