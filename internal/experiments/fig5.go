package experiments

import (
	"fmt"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Fig5a reproduces Figure 5(a): the speedup (minus 1, in percent) over the
// plain red-black tree on the default TM of three alternatives, as the
// update ratio grows from 10% to 40%:
//
//   - "Elastic": the same red-black tree run on elastic transactions —
//     relaxing the *transactions*;
//   - "SFtree" and "Opt SFtree": replacing the *data structure*.
//
// The paper's point: refactoring the data structure (≈22% average speedup)
// beats refactoring the TM (≈15%).
func Fig5a(o Opts) error {
	o.defaults()
	updates := []int{10, 20, 30, 40}
	threads := o.maxThreads()
	fmt.Fprintf(o.Out, "Figure 5(a): speedup-1 (%%) over RBtree/CTL at %d threads\n\n", threads)
	t := &table{header: []string{"update", "Elastic speedup", "SFtree speedup", "Opt SFtree speedup"}}
	throughput := func(kind trees.Kind, mode stm.Mode, u int) float64 {
		return run(&o, kind, mode, threads, Workload{KeyRange: o.keyRange(1 << 13), UpdatePercent: u, Effective: true}).Throughput
	}
	var sums [3]float64
	for _, u := range updates {
		base := throughput(trees.RB, stm.CTL, u)
		elastic := throughput(trees.RB, stm.Elastic, u)
		sf := throughput(trees.SF, stm.CTL, u)
		opt := throughput(trees.SFOpt, stm.CTL, u)
		pct := func(x float64) float64 {
			if base == 0 {
				return 0
			}
			return (x/base - 1) * 100
		}
		e, s, p := pct(elastic), pct(sf), pct(opt)
		sums[0] += e
		sums[1] += s
		sums[2] += p
		t.addRow(fmt.Sprintf("%d%%", u), fmtF(e), fmtF(s), fmtF(p))
	}
	n := float64(len(updates))
	t.addRow("mean", fmtF(sums[0]/n), fmtF(sums[1]/n), fmtF(sums[2]/n))
	t.write(o.Out)
	fmt.Fprintln(o.Out, "\npaper: elastic ≈15% average, SFtree ≈22% average (optimized or not)")
	return nil
}

// Fig5b reproduces Figure 5(b), the reusability experiment (§5.4):
// throughput with 90% read-only operations and 10% effective updates of
// which 1%, 5% or 10% are composed move operations, on the
// speculation-friendly tree. More moves → lower throughput, because a move
// protects more of the structure for longer than an insert or delete.
func Fig5b(o Opts) error {
	o.defaults()
	moves := []int{1, 5, 10}
	fmt.Fprintln(o.Out, "Figure 5(b): throughput (ops/µs) with 10% updates, varying move share")
	fmt.Fprintln(o.Out)
	t := &table{header: append([]string{"threads"}, func() []string {
		h := make([]string, len(moves))
		for i, mv := range moves {
			h[i] = fmt.Sprintf("%d%% move", mv)
		}
		return h
	}()...)}
	for _, th := range sortedCopy(o.Threads) {
		row := []string{fmt.Sprintf("%d", th)}
		for _, mv := range moves {
			res := run(&o, trees.SFOpt, stm.CTL, th, Workload{
				KeyRange:      o.keyRange(1 << 13),
				UpdatePercent: 10,
				MovePercent:   mv,
				Effective:     true,
			})
			row = append(row, fmtF(res.Throughput))
		}
		t.addRow(row...)
	}
	t.write(o.Out)
	return nil
}
