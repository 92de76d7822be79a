package experiments

import (
	"fmt"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Table1 reproduces the paper's Table 1: "Maximum number of transactional
// reads per operation on three 2^12-sized balanced search trees as the
// update ratio increases", measured across concurrent threads on
// TinySTM-CTL. The metric counts the reads of aborted attempts too, so it
// exposes how the coupled trees' step complexity explodes with contention
// while the speculation-friendly tree's stays almost flat.
//
// The fourth row adds the optimized (uread) variant, quantifying §3.3's
// "optimization further reducing the number of transactional reads".
func Table1(o Opts) error {
	o.defaults()
	updates := []int{0, 10, 20, 30, 40, 50}
	kinds := []trees.Kind{trees.AVL, trees.RB, trees.SF, trees.SFOpt}

	threads := o.maxThreads() // Table 1 is a single (max) thread count
	fmt.Fprintf(o.Out, "Table 1: max transactional reads per operation (2^12-sized trees, %d threads, CTL)\n\n", threads)

	t := &table{header: append([]string{"Update"}, func() []string {
		h := make([]string, len(updates))
		for i, u := range updates {
			h[i] = fmt.Sprintf("%d%%", u)
		}
		return h
	}()...)}

	for _, kind := range kinds {
		row := []string{kind.Label()}
		for _, u := range updates {
			res := run(&o, kind, stm.CTL, threads, Workload{
				KeyRange:      o.keyRange(1 << 13), // expected size 2^12
				UpdatePercent: u,
				Effective:     false, // Table 1 uses equal-probability attempted updates
			})
			row = append(row, fmt.Sprintf("%d", res.STM.MaxOpReads))
		}
		t.addRow(row...)
	}
	t.write(o.Out)
	fmt.Fprintln(o.Out, "\npaper (48 threads): AVL 29/415/711/1008/1981/2081; RB 31/573/965/1108/1484/1545; SF 29/75/123/120/144/180")
	return nil
}
