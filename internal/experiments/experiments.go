// Package experiments regenerates every table and figure of the paper's
// evaluation section (§2 Table 1, §5.2 Fig. 3, §5.3 Fig. 4 and Fig. 5(a),
// §5.4 Fig. 5(b), §5.5 Fig. 6) on top of the micro-benchmark runner
// (runner.go) and the vacation application. Each experiment prints rows
// shaped like the paper's, with a one-line reminder of the paper's numbers,
// so shape comparisons (who wins, by what factor, where crossovers fall)
// are immediate.
//
// The cmd/experiments binary is a thin CLI over this package, and the
// root-level bench_test.go exposes one testing.B benchmark per experiment.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// Scale selects how heavy the runs are. Quick keeps every experiment under
// a few minutes on a laptop core; Full approaches the paper's parameters
// (within the reach of the host: the paper used a 48-core Opteron).
type Scale int

// Available scales.
const (
	Quick Scale = iota
	Full
)

// Opts are shared experiment options.
type Opts struct {
	Out      io.Writer
	Scale    Scale
	Threads  []int         // thread counts to sweep (default scale-dependent)
	Duration time.Duration // per-cell duration (default scale-dependent)
	Seed     int64

	// KeyRange overrides the micro-benchmark key universe (0 = each
	// figure's paper-faithful default). Mainly for smoke tests and fast
	// exploratory sweeps.
	KeyRange uint64
	// VacRelations and VacBaseTx override the vacation table size and base
	// transaction count (0 = scale defaults).
	VacRelations int
	VacBaseTx    int

	// YieldEvery configures the STM interleaving simulation for the
	// micro-benchmarks (stm.WithYield). -1 disables it; 0 picks
	// a default that enables it only when the host has fewer processors
	// than the largest swept thread count (without it, transactions on an
	// under-provisioned host serialize and the contention the paper
	// measures never materializes).
	YieldEvery int
}

// yieldEvery resolves the knob against the host's processor count.
func (o *Opts) yieldEvery() int {
	switch {
	case o.YieldEvery < 0:
		return 0
	case o.YieldEvery > 0:
		return o.YieldEvery
	case runtime.GOMAXPROCS(0) < o.maxThreads():
		return 8
	default:
		return 0
	}
}

// maxThreads is the largest swept thread count: the configuration of the
// single-thread-count experiments (Table 1, Fig. 5(a)).
func (o *Opts) maxThreads() int { return slices.Max(o.Threads) }

// keyRange returns the override or the figure's default.
func (o *Opts) keyRange(def uint64) uint64 {
	if o.KeyRange != 0 {
		return o.KeyRange
	}
	return def
}

func (o *Opts) defaults() {
	if o.Out == nil {
		panic("experiments: Opts.Out must be set")
	}
	if len(o.Threads) == 0 {
		if o.Scale == Full {
			o.Threads = []int{1, 2, 4, 8, 16, 24, 32, 40, 48}
		} else {
			o.Threads = []int{1, 2, 4, 8}
		}
	}
	if o.Duration == 0 {
		if o.Scale == Full {
			o.Duration = 2 * time.Second
		} else {
			o.Duration = 250 * time.Millisecond
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// table is a minimal aligned-text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
