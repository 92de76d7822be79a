// Benchmarks: one testing.B entry point per table/figure of the paper's
// evaluation. These exercise exactly the code paths the cmd/experiments
// sweeps measure, but under `go test -bench` semantics (b.N operations,
// -benchmem allocation accounting). The full parameter sweeps that
// regenerate the paper's tables live in cmd/experiments, one subcommand per
// benchmark below (table1, fig3, fig4, fig5a, fig5b, fig6).
//
// Custom metrics reported where the paper's metric is not time:
//
//	maxreads/op  – Table 1's maximum transactional reads per operation
//	aborts/op    – conflict pressure
//	rotations    – §5.5's structural-work comparison
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
	"repro/internal/vacation"
)

// benchWorkers is the worker-goroutine count for the parallel benchmarks,
// matching the contention regime of the paper's mid-range configurations.
const benchWorkers = 8

// yieldEvery enables the STM interleaving simulation so transactions
// overlap even on hosts with fewer cores than workers (see stm.WithYield).
const yieldEvery = 8

// runTreeBench executes b.N operations of the given workload spread over
// benchWorkers goroutines against a freshly filled tree.
func runTreeBench(b *testing.B, kind trees.Kind, mode stm.Mode, wl experiments.Workload) {
	b.Helper()
	s := stm.New(stm.WithMode(mode), stm.WithYield(yieldEvery))
	m := trees.New(kind, s)
	fillTh := s.NewThread()
	rng := rand.New(rand.NewSource(17))
	// Shuffled fill: even the never-rebalancing tree must start from an
	// ordinary random BST, not the linked list a sorted fill would build.
	for _, k := range rng.Perm(int(wl.KeyRange)) {
		if rng.Intn(2) == 0 {
			m.Insert(fillTh, uint64(k), uint64(k))
		}
	}
	trees.Quiesce(m, 1<<20)
	stop := trees.Start(m)
	defer stop()

	var seq atomic.Int64
	runners := make([]*experiments.Runner, 0, benchWorkers)
	var mu sync.Mutex
	b.ResetTimer()
	b.SetParallelism(benchWorkers) // workers per GOMAXPROCS
	b.RunParallel(func(pb *testing.PB) {
		r := experiments.NewRunner(m, s.NewThread(), wl, 100+seq.Add(1))
		mu.Lock()
		runners = append(runners, r)
		mu.Unlock()
		for pb.Next() {
			r.Step()
		}
	})
	b.StopTimer()
	var st stm.Stats
	for _, r := range runners {
		st.Add(r.Thread().Stats())
	}
	b.ReportMetric(float64(st.MaxOpReads), "maxreads/op")
	if st.Commits+st.Aborts > 0 {
		b.ReportMetric(float64(st.Aborts)/float64(b.N), "aborts/op")
	}
	if rot, ok := trees.Rotations(m); ok {
		b.ReportMetric(float64(rot), "rotations")
	}
}

// BenchmarkTable1 regenerates Table 1's metric: transactional reads per
// operation (including aborted attempts) as the update ratio grows, on the
// three balanced trees plus the optimized variant, attempted-update regime.
func BenchmarkTable1(b *testing.B) {
	for _, kind := range []trees.Kind{trees.AVL, trees.RB, trees.SF, trees.SFOpt} {
		for _, update := range []int{0, 20, 50} {
			b.Run(fmt.Sprintf("%s/update%d", kind, update), func(b *testing.B) {
				runTreeBench(b, kind, stm.CTL, experiments.Workload{
					KeyRange:      1 << 13,
					UpdatePercent: update,
					Effective:     false,
				})
			})
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3's comparison: the four trees under the
// normal and biased effective-update workloads (15% updates shown; the
// cmd/experiments sweep covers 5–20%).
func BenchmarkFig3(b *testing.B) {
	for _, biased := range []bool{false, true} {
		name := "normal"
		if biased {
			name = "biased"
		}
		for _, kind := range []trees.Kind{trees.RB, trees.SF, trees.NR, trees.AVL} {
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				runTreeBench(b, kind, stm.CTL, experiments.Workload{
					KeyRange:      1 << 13,
					UpdatePercent: 15,
					Biased:        biased,
					Effective:     true,
				})
			})
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4's portability comparison: the trees on
// elastic transactions (E-STM) and on eager acquirement (TinySTM-ETL).
func BenchmarkFig4(b *testing.B) {
	for _, mode := range []stm.Mode{stm.Elastic, stm.ETL} {
		for _, kind := range []trees.Kind{trees.RB, trees.SF, trees.AVL} {
			b.Run(fmt.Sprintf("%s/%s", mode, kind), func(b *testing.B) {
				runTreeBench(b, kind, mode, experiments.Workload{
					KeyRange:      1 << 13,
					UpdatePercent: 10,
					Effective:     true,
				})
			})
		}
	}
}

// BenchmarkFig5a regenerates Fig. 5(a)'s four configurations at 20%
// updates: the red-black tree on CTL (the baseline), the same tree on
// elastic transactions, and the two speculation-friendly variants; the
// speedups are the time ratios of the sub-benchmarks.
func BenchmarkFig5a(b *testing.B) {
	cases := []struct {
		name string
		kind trees.Kind
		mode stm.Mode
	}{
		{"RBtree-CTL-baseline", trees.RB, stm.CTL},
		{"RBtree-Elastic", trees.RB, stm.Elastic},
		{"SFtree", trees.SF, stm.CTL},
		{"OptSFtree", trees.SFOpt, stm.CTL},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runTreeBench(b, c.kind, c.mode, experiments.Workload{
				KeyRange:      1 << 13,
				UpdatePercent: 20,
				Effective:     true,
			})
		})
	}
}

// BenchmarkFig5b regenerates Fig. 5(b): 10% updates of which 1/5/10% are
// composed move operations, on the optimized speculation-friendly tree.
func BenchmarkFig5b(b *testing.B) {
	for _, movePct := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("move%d", movePct), func(b *testing.B) {
			runTreeBench(b, trees.SFOpt, stm.CTL, experiments.Workload{
				KeyRange:      1 << 13,
				UpdatePercent: 10,
				MovePercent:   movePct,
				Effective:     true,
			})
		})
	}
}

// BenchmarkFig6 regenerates Fig. 6's macro-benchmark: b.N vacation client
// transactions against each tree library under both contention presets
// (cmd/experiments reports speedups over the red-black tree at one thread;
// here the sub-benchmark time ratios carry the same information).
func BenchmarkFig6(b *testing.B) {
	presets := []struct {
		name string
		mk   func(rel, tx int) vacation.Config
	}{
		{"high", vacation.HighContention},
		{"low", vacation.LowContention},
	}
	const relations = 1024
	for _, preset := range presets {
		cfg := preset.mk(relations, 0)
		for _, kind := range []trees.Kind{trees.RB, trees.SFOpt, trees.NR} {
			b.Run(fmt.Sprintf("%s/%s", preset.name, kind), func(b *testing.B) {
				s := stm.New(stm.WithYield(yieldEvery))
				m := vacation.NewManager(s, kind)
				setup := s.NewThread()
				vacation.Populate(m, setup, cfg, 5)
				stop := m.StartMaintenance()
				defer stop()
				var seq atomic.Int64
				b.ResetTimer()
				b.SetParallelism(benchWorkers)
				b.RunParallel(func(pb *testing.PB) {
					cl := vacation.NewClient(m, s.NewThread(), cfg, 6+seq.Add(1))
					for pb.Next() {
						cl.Run(1)
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(m.Rotations()), "rotations")
			})
		}
	}
}

// BenchmarkAblationMaintenanceCoupling quantifies the paper's central
// design choice (§3.1): the distributed rotation mechanism — each rotation
// and removal its own node-local transaction — versus encapsulating the
// whole maintenance sweep in one transaction whose read set covers the
// tree. Same workload, same tree, same rebalancing policy; only the
// transaction granularity of the maintenance differs. The coupled variant's
// abort metric explodes under update load.
func BenchmarkAblationMaintenanceCoupling(b *testing.B) {
	wl := experiments.Workload{KeyRange: 1 << 12, UpdatePercent: 40, Effective: true}
	run := func(b *testing.B, coupled bool) {
		s := stm.New(stm.WithYield(yieldEvery))
		tr := sftree.New(s, sftree.WithVariant(sftree.Portable))
		fillTh := s.NewThread()
		rng := rand.New(rand.NewSource(23))
		for _, k := range rng.Perm(int(wl.KeyRange)) {
			if rng.Intn(2) == 0 {
				tr.Insert(fillTh, uint64(k), uint64(k))
			}
		}
		tr.Quiesce(1 << 20)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if coupled {
					tr.RunMaintenancePassCoupled()
				} else {
					tr.RunMaintenancePass()
				}
			}
		}()
		var seq atomic.Int64
		b.ResetTimer()
		b.SetParallelism(benchWorkers)
		b.RunParallel(func(pb *testing.PB) {
			r := experiments.NewRunner(tr, s.NewThread(), wl, 900+seq.Add(1))
			for pb.Next() {
				r.Step()
			}
		})
		b.StopTimer()
		close(stop)
		<-done
		// TotalStats covers workers AND the maintenance thread — under the
		// coupled regime it is the whole-tree sweep that keeps aborting.
		st := s.TotalStats()
		b.ReportMetric(float64(st.Aborts)/float64(b.N), "aborts/op")
	}
	b.Run("distributed", func(b *testing.B) { run(b, false) })
	b.Run("coupled", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTMMode compares the STM's TM algorithms — commit-time
// locking (CTL), encounter-time locking (ETL) and elastic transactions —
// on an identical update-heavy tree workload, the ablation behind Fig. 4.
// Every mode retries aborts under the same suicide contention manager.
func BenchmarkAblationTMMode(b *testing.B) {
	for _, mode := range []stm.Mode{stm.CTL, stm.ETL, stm.Elastic} {
		b.Run(mode.String(), func(b *testing.B) {
			runTreeBench(b, trees.SFOpt, mode, experiments.Workload{
				KeyRange:      1 << 12,
				UpdatePercent: 30,
				Effective:     true,
			})
		})
	}
}
