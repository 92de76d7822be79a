package vacation

import (
	"sync"
	"time"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Result is what one Run measured.
type Result struct {
	Duration  time.Duration // the client phase only, as STAMP times it
	Rotations uint64        // Manager.Rotations at the end
	Counts    ActionCounts  // summed over the clients
	Stats     stm.Stats     // summed over the clients' threads
}

// Run is one vacation run, the unit of Fig. 6: it populates a database of
// the given kind from seed, starts its maintenance, and lets threads
// clients (client i draws from seed+i+1) share cfg.NumTransactions, at
// least one each. The STM uses the paper's suicide contention manager and
// yields every yieldEvery accesses (0 never). Once the maintenance has
// stopped, Run checks the database: a non-nil error means the run left it
// inconsistent.
func Run(kind trees.Kind, cfg Config, threads int, seed int64, yieldEvery int) (Result, error) {
	s := stm.New(stm.WithYield(yieldEvery))
	m := NewManager(s, kind)
	setup := s.NewThread()
	Populate(m, setup, cfg, seed)
	stop := m.StartMaintenance()
	per := max(cfg.NumTransactions/threads, 1)
	clients := make([]*Client, threads)
	for i := range clients {
		clients[i] = NewClient(m, s.NewThread(), cfg, seed+int64(i)+1)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(per)
		}()
	}
	wg.Wait()
	res := Result{Duration: time.Since(start)}
	stop()
	res.Rotations = m.Rotations()
	for _, cl := range clients {
		res.Stats.Add(cl.th.Stats())
		res.Counts.MakeReservation += cl.Counts.MakeReservation
		res.Counts.DeleteCustomer += cl.Counts.DeleteCustomer
		res.Counts.UpdateTables += cl.Counts.UpdateTables
	}
	return res, m.CheckConsistency(setup)
}
