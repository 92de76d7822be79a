package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stm"
	"repro/internal/trees"
	"repro/internal/vacation"
)

// Fig6 reproduces Figure 6, the STAMP vacation macro-benchmark (§5.5):
// execution time and speedup over the bare sequential implementation of the
// travel-reservation application built on the red-black tree (STAMP's
// default), the optimized speculation-friendly tree and the
// no-restructuring tree, under the two official contention presets and with
// 1x, 8x and 16x the base transaction count.
//
// It also reports the §5.5 rotation-count comparison: on the paper's
// machine the red-black vacation triggered ≈130k rotations where the
// speculation-friendly one needed ≈50k.
func Fig6(o Opts) error {
	o.defaults()
	relations, baseTx := 1024, 4096
	if o.Scale == Full {
		relations, baseTx = 1<<14, 1<<16
	}
	if o.VacRelations > 0 {
		relations = o.VacRelations
	}
	if o.VacBaseTx > 0 {
		baseTx = o.VacBaseTx
	}
	kinds := []trees.Kind{trees.RB, trees.SFOpt, trees.NR}
	presets := []struct {
		name string
		mk   func(rel, tx int) vacation.Config
	}{
		{"high contention", vacation.HighContention},
		{"low contention", vacation.LowContention},
	}
	for _, mult := range []int{1, 8, 16} {
		for _, preset := range presets {
			cfg := preset.mk(relations, baseTx*mult)
			fmt.Fprintf(o.Out, "Figure 6 — vacation %s, %dx transactions (%d txs, %d relations)\n\n",
				preset.name, mult, cfg.NumTransactions, cfg.NumRelations)
			seqDur := runVacationSeq(cfg, o.Seed)
			fmt.Fprintf(o.Out, "sequential baseline: %.3fs\n\n", seqDur.Seconds())
			t := &table{header: append([]string{"threads"}, func() []string {
				h := make([]string, 0, 2*len(kinds))
				for _, k := range kinds {
					h = append(h, k.Label()+" speedup", k.Label()+" dur(s)")
				}
				return h
			}()...)}
			for _, th := range sortedCopy(o.Threads) {
				row := []string{fmt.Sprintf("%d", th)}
				for _, kind := range kinds {
					dur, rot := runVacation(kind, cfg, th, o.Seed, o.yieldEvery())
					row = append(row, fmtF(seqDur.Seconds()/dur.Seconds()), fmt.Sprintf("%.3f", dur.Seconds()))
					// §5.5 rotation comparison at the 8-thread (or max)
					// high-contention point, as in the paper's text.
					if preset.name == "high contention" && mult == 8 && th == o.maxThreads() &&
						(kind == trees.RB || kind == trees.SFOpt) {
						fmt.Fprintf(o.Out, "  [rotations] %s at %d threads: %d\n", kind.Label(), th, rot)
					}
				}
				t.addRow(row...)
			}
			t.write(o.Out)
			fmt.Fprintln(o.Out)
		}
	}
	fmt.Fprintln(o.Out, "paper: vacation always faster on Opt SFtree than RBtree (up to 1.3x at 1x txs, 3.5x at 16x);")
	fmt.Fprintln(o.Out, "       NRtree comparable to Opt SFtree; RB ≈130k rotations vs SF ≈50k (8 threads, high contention).")
	return nil
}

// runVacation executes one concurrent vacation run and returns its duration
// (client phase only, as STAMP times it) and the total tree rotations.
func runVacation(kind trees.Kind, cfg vacation.Config, threads int, seed int64, yieldEvery int) (time.Duration, uint64) {
	s := stm.New(stm.WithYield(yieldEvery), stm.WithContentionManager(stm.Suicide()))
	m := vacation.NewManager(s, kind)
	setup := s.NewThread()
	vacation.Populate(m, setup, cfg, seed)
	stop := m.StartMaintenance()
	per := cfg.NumTransactions / threads
	if per == 0 {
		per = 1
	}
	clients := make([]*vacation.Client, threads)
	for i := range clients {
		clients[i] = vacation.NewClient(m, s.NewThread(), cfg, seed+int64(i)+1)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *vacation.Client) {
			defer wg.Done()
			cl.Run(per)
		}(cl)
	}
	wg.Wait()
	dur := time.Since(start)
	stop()
	var rot uint64
	for t := vacation.Car; t <= vacation.Room; t++ {
		if r, ok := trees.Rotations(m.Table(t)); ok {
			rot += r
		}
	}
	if r, ok := trees.Rotations(m.Customers()); ok {
		rot += r
	}
	return dur, rot
}

// runVacationSeq times the unsynchronized single-threaded implementation.
func runVacationSeq(cfg vacation.Config, seed int64) time.Duration {
	m := vacation.NewSeqManager()
	vacation.PopulateSeq(m, cfg, seed)
	cl := vacation.NewSeqClient(m, cfg, seed+1)
	start := time.Now()
	cl.Run(cfg.NumTransactions)
	return time.Since(start)
}
