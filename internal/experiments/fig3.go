package experiments

import (
	"fmt"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Fig3 reproduces Figure 3: throughput (operations per microsecond) of the
// four trees — RBtree, SFtree, NRtree, AVLtree — as the thread count grows,
// for effective update ratios 5/10/15/20%, under the normal (uniform) and
// biased workloads, on TinySTM-CTL with an initialized set of 2^12
// elements.
//
// The paper's headline shapes: the SF tree scales best and beats RB by up
// to 1.5x and AVL by up to 1.6x; the NR tree matches SF under the uniform
// workload but collapses towards a linear structure under bias.
func Fig3(o Opts) error {
	o.defaults()
	kinds := []trees.Kind{trees.RB, trees.SF, trees.NR, trees.AVL}
	updates := []int{5, 10, 15, 20}
	for _, biased := range []bool{false, true} {
		name := "normal"
		if biased {
			name = "biased"
		}
		for _, u := range updates {
			fmt.Fprintf(o.Out, "Figure 3 (%s workload, %d%% updates): throughput in ops/µs\n\n", name, u)
			t := &table{header: append([]string{"threads"}, labels(kinds)...)}
			for _, th := range sortedCopy(o.Threads) {
				row := []string{fmt.Sprintf("%d", th)}
				for _, kind := range kinds {
					res := run(&o, kind, stm.CTL, th, Workload{
						KeyRange:      o.keyRange(1 << 13),
						UpdatePercent: u,
						Biased:        biased,
						Effective:     true,
					})
					row = append(row, fmtF(res.Throughput))
				}
				t.addRow(row...)
			}
			t.write(o.Out)
			fmt.Fprintln(o.Out)
		}
	}
	return nil
}

func labels(kinds []trees.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.Label()
	}
	return out
}
