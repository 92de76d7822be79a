// Command vacation runs the STAMP travel-reservation macro-benchmark
// (paper §5.5) on a chosen tree library and prints duration, throughput,
// STM commits and aborts, and rotations. Every run checks the database's
// consistency afterwards and exits 1 when it fails. Example:
//
//	vacation -tree sf-opt -clients 8 -contention high -t 32768 -r 4096
//	vacation -tree rb -contention low -check
//
// The -n/-q/-u flags override the contention preset's parameters, matching
// STAMP's flags of the same names.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trees"
	"repro/internal/vacation"
)

func main() {
	tree := flag.String("tree", "sf-opt", "tree kind: sf|sf-opt|rb|avl|nr")
	clients := flag.Int("clients", 1, "concurrent client goroutines")
	contention := flag.String("contention", "high", "preset: high|low")
	relations := flag.Int("r", 4096, "rows per table (-r)")
	transactions := flag.Int("t", 16384, "total client transactions (-t)")
	nQuery := flag.Int("n", 0, "override queries per transaction (-n)")
	qPct := flag.Int("q", 0, "override query percentage (-q)")
	uPct := flag.Int("u", 0, "override user-transaction percentage (-u)")
	seed := flag.Int64("seed", 42, "workload seed")
	check := flag.Bool("check", false, "print the consistency verdict (the check always runs)")
	yieldEvery := flag.Int("yield", 0, "STM interleaving simulation: yield every N accesses (0 off)")
	flag.Parse()

	var cfg vacation.Config
	switch *contention {
	case "high":
		cfg = vacation.HighContention(*relations, *transactions)
	case "low":
		cfg = vacation.LowContention(*relations, *transactions)
	default:
		fmt.Fprintf(os.Stderr, "vacation: unknown contention %q\n", *contention)
		os.Exit(2)
	}
	if *nQuery > 0 {
		cfg.NumQueryPerTx = *nQuery
	}
	if *qPct > 0 {
		cfg.QueryPercent = *qPct
	}
	if *uPct > 0 {
		cfg.UserPercent = *uPct
	}

	res, err := vacation.Run(trees.Kind(*tree), cfg, *clients, *seed, *yieldEvery)
	fmt.Printf("tree=%s clients=%d contention=%s relations=%d transactions=%d\n",
		*tree, *clients, *contention, cfg.NumRelations, int(res.Counts.Total()))
	fmt.Printf("mix: make-reservation=%d delete-customer=%d update-tables=%d\n",
		res.Counts.MakeReservation, res.Counts.DeleteCustomer, res.Counts.UpdateTables)
	fmt.Printf("duration=%.3fs  throughput=%.0f tx/s\n",
		res.Duration.Seconds(), float64(res.Counts.Total())/res.Duration.Seconds())
	fmt.Printf("stm: commits=%d aborts=%d abort-rate=%.4f\n", res.Stats.Commits, res.Stats.Aborts, res.Stats.AbortRate())
	fmt.Printf("rotations=%d\n", res.Rotations)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vacation: CONSISTENCY FAILURE: %v\n", err)
		os.Exit(1)
	}
	if *check {
		fmt.Println("consistency: OK")
	}
}
