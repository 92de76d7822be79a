package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/trees"
	"repro/internal/vacation"
)

// Fig6 reproduces Figure 6, the STAMP vacation macro-benchmark (§5.5):
// execution time of the travel-reservation application built on the
// red-black tree (STAMP's default), the optimized speculation-friendly
// tree and the no-restructuring tree, under the two official contention
// presets and with 1x, 8x and 16x the base transaction count. Every
// (kind, threads) cell is the median of cellRuns runs, the kinds
// interleaved run by run (one timing of a cell moved 15–25 % between
// runs). Every paper claim is relative, so each cell's speedup is over the
// red-black tree's cell at one thread, timed cellRuns times on its own when
// 1 is not among the thread counts. Every run checks its database
// (vacation.Run).
//
// It also reports the §5.5 rotation-count comparison: on the paper's
// machine the red-black vacation triggered ≈130k rotations where the
// speculation-friendly one needed ≈50k.
func Fig6(o Opts) error {
	const cellRuns = 3
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
	kinds := []trees.Kind{trees.RB, trees.SFOpt, trees.NR} // RB first: the baseline
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
			run := func(kind trees.Kind, threads int) (vacation.Result, error) {
				res, err := vacation.Run(kind, cfg, threads, o.Seed, o.yieldEvery())
				if err != nil {
					err = fmt.Errorf("fig6: %s, %d threads: %w", kind.Label(), threads, err)
				}
				return res, err
			}
			threads := sortedCopy(o.Threads)
			durs := make([][]time.Duration, len(threads)) // [threads][kind], medians
			for i, th := range threads {
				cell := make([][]time.Duration, len(kinds))
				for r := range cellRuns {
					for j, kind := range kinds {
						res, err := run(kind, th)
						if err != nil {
							return err
						}
						cell[j] = append(cell[j], res.Duration)
						// §5.5 rotation comparison at the 8-thread (or max)
						// high-contention point, as in the paper's text.
						if r == 0 && preset.name == "high contention" && mult == 8 && th == o.maxThreads() &&
							(kind == trees.RB || kind == trees.SFOpt) {
							fmt.Fprintf(o.Out, "  [rotations] %s at %d threads: %d\n", kind.Label(), th, res.Rotations)
						}
					}
				}
				for _, c := range cell {
					durs[i] = append(durs[i], median(c))
				}
			}
			var baseline time.Duration
			if i := slices.Index(threads, 1); i >= 0 {
				baseline = durs[i][0] // RB is kinds[0]
			} else {
				var base []time.Duration
				for range cellRuns {
					res, err := run(trees.RB, 1)
					if err != nil {
						return err
					}
					base = append(base, res.Duration)
				}
				baseline = median(base)
			}
			fmt.Fprintf(o.Out, "every cell the median of %d runs\nbaseline: RBtree at 1 thread, median of %d, %.3fs\n\n",
				cellRuns, cellRuns, baseline.Seconds())
			t := &table{header: []string{"threads"}}
			for _, k := range kinds {
				t.header = append(t.header, k.Label()+" speedup", k.Label()+" dur(s)")
			}
			for i, th := range threads {
				row := []string{fmt.Sprintf("%d", th)}
				for _, dur := range durs[i] {
					row = append(row, fmtF(baseline.Seconds()/dur.Seconds()), fmt.Sprintf("%.3f", dur.Seconds()))
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

// median sorts ds and returns its middle element.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
