package experiments

import (
	"fmt"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Fig4 reproduces Figure 4, the portability experiment (§5.3): the same
// tree comparison run (left) on E-STM — elastic transactions, on a 2^16
// tree where the paper found E-STM efficient — and (right) on TinySTM-ETL,
// eager acquirement. The paper's claim: the speculation-friendly tree wins
// under every TM algorithm, so its benefit is TM-independent.
func Fig4(o Opts) error {
	o.defaults()
	kinds := []trees.Kind{trees.RB, trees.SF, trees.AVL}
	configs := []struct {
		name     string
		mode     stm.Mode
		keyRange uint64
	}{
		{"E-STM (elastic transactions, 2^16 tree)", stm.Elastic, 1 << 17},
		{"TinySTM-ETL (eager acquirement, 2^12 tree)", stm.ETL, 1 << 13},
	}
	for _, cfg := range configs {
		fmt.Fprintf(o.Out, "Figure 4 — %s, 10%% updates: throughput in ops/µs\n\n", cfg.name)
		t := &table{header: append([]string{"threads"}, labels(kinds)...)}
		for _, th := range sortedCopy(o.Threads) {
			row := []string{fmt.Sprintf("%d", th)}
			for _, kind := range kinds {
				res := run(&o, kind, cfg.mode, th, Workload{
					KeyRange:      o.keyRange(cfg.keyRange),
					UpdatePercent: 10,
					Effective:     true,
				})
				row = append(row, fmtF(res.Throughput))
			}
			t.addRow(row...)
		}
		t.write(o.Out)
		fmt.Fprintln(o.Out)
	}
	return nil
}
