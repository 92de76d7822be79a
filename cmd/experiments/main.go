// Command experiments regenerates the tables and figures of "A
// Speculation-Friendly Binary Search Tree" (PPoPP 2012).
//
// Usage:
//
//	experiments [flags] table1|fig3|fig4|fig5a|fig5b|fig6|all
//
// Flags:
//
//	-full            run near paper-scale parameters (default: quick)
//	-threads list    comma-separated thread counts (default scale-dependent)
//	-duration d      per-cell measurement duration (default scale-dependent)
//	-seed n          workload seed (default 42)
//
// Each experiment prints text tables shaped like the paper's figures plus a
// one-line reminder of the paper's reported numbers, so the shape comparison
// is immediate. Table 1 and Fig. 5(a) run at the largest -threads count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run near paper-scale parameters")
	threads := flag.String("threads", "", "comma-separated thread counts")
	duration := flag.Duration("duration", 0, "per-cell measurement duration")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] table1|fig3|fig4|fig5a|fig5b|fig6|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	o := experiments.Opts{
		Out:      os.Stdout,
		Scale:    experiments.Quick,
		Duration: *duration,
		Seed:     *seed,
	}
	if *full {
		o.Scale = experiments.Full
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "experiments: bad thread count %q\n", part)
				os.Exit(2)
			}
			o.Threads = append(o.Threads, n)
		}
	}

	runners := map[string]func(experiments.Opts) error{
		"table1": experiments.Table1,
		"fig3":   experiments.Fig3,
		"fig4":   experiments.Fig4,
		"fig5a":  experiments.Fig5a,
		"fig5b":  experiments.Fig5b,
		"fig6":   experiments.Fig6,
	}
	name := flag.Arg(0)
	start := time.Now()
	if name == "all" {
		for _, n := range []string{"table1", "fig3", "fig4", "fig5a", "fig5b", "fig6"} {
			fmt.Printf("==== %s ====\n\n", n)
			if err := runners[n](o); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", n, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	} else {
		run, ok := runners[name]
		if !ok {
			flag.Usage()
			os.Exit(2)
		}
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("\n(total wall time %.1fs)\n", time.Since(start).Seconds())
}
