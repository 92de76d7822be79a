package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// stream is a golden single-thread op stream: the FNV-64 hash of the final
// ascending key set plus the effective-update counters, captured from the
// harness this runner replaced, on the same configuration.
type stream struct {
	keysHash             uint64
	effUpdates, effMoves uint64
}

// replay runs 10 000 Steps of wl against a freshly filled 2^10-key SF-opt
// tree, single thread, no maintenance, seed 42.
func replay(wl Workload) stream {
	s := stm.New()
	m := trees.New(trees.SFOpt, s)
	fill(m, s, wl.KeyRange, 42)
	r := NewRunner(m, s.NewThread(), wl, 42)
	for range 10000 {
		r.Step()
	}
	keys := m.Keys(s.NewThread())
	slices.Sort(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write(binary.LittleEndian.AppendUint64(nil, k))
	}
	return stream{h.Sum64(), r.EffUpdates, r.EffMoves}
}

// TestRunner pins the runner's op stream to the goldens of the harness it
// replaced (same seed ⇒ same stream, so the paper's figures measure what
// they measured before) and checks the measured cells: update accounting,
// moves, bias, all three TM modes, Table 1's read ceiling, maintenance
// during the measurement, and the option guards.
func TestRunner(t *testing.T) {
	const kr = 1 << 10
	type row struct {
		name    string
		kind    trees.Kind
		mode    stm.Mode
		threads int
		d       time.Duration
		wl      Workload
		golden  *stream                      // replay wl and compare, instead of a measured cell
		body    func(t *testing.T)           // drives its own tree, instead of a measured cell
		check   func(t *testing.T, r Result) // nil: the cell must panic
	}
	didWork := func(t *testing.T, r Result) {
		if r.Ops == 0 || r.Throughput <= 0 || r.STM.Commits == 0 {
			t.Fatalf("no work measured: %+v", r)
		}
	}
	rows := []row{
		{name: "StreamUniformEffective", wl: Workload{KeyRange: kr, UpdatePercent: 20, Effective: true},
			golden: &stream{0xee221dce315fce74, 1235, 0}},
		{name: "StreamBiasedEffective", wl: Workload{KeyRange: kr, UpdatePercent: 20, Biased: true, Effective: true},
			golden: &stream{0xfa12767967be0f8c, 865, 0}},
		{name: "StreamAttempted", wl: Workload{KeyRange: kr, UpdatePercent: 30},
			golden: &stream{0x79c902414b54db9b, 1425, 0}},
		{name: "StreamMoves", wl: Workload{KeyRange: kr, UpdatePercent: 10, MovePercent: 10, Effective: true},
			golden: &stream{0xa1bda91be32c7144, 223, 223}},
		{name: "EffectiveRatioTracksTarget", kind: trees.SFOpt, d: 80 * time.Millisecond,
			wl: Workload{UpdatePercent: 40, Effective: true},
			check: func(t *testing.T, r Result) {
				// Effective mode turns most attempted updates into effective
				// ones; generous slack for the warm-up prefix.
				if ratio := float64(r.EffUpdates) / float64(r.Ops); ratio < 0.20 || ratio > 0.45 {
					t.Fatalf("effective ratio %.3f far from 0.40 target", ratio)
				}
			}},
		{name: "ReadOnlyWorkloadHasNoUpdates", kind: trees.SF, wl: Workload{UpdatePercent: 0, Effective: true},
			check: func(t *testing.T, r Result) {
				didWork(t, r)
				if r.EffUpdates != 0 {
					t.Fatalf("updates in a 0%% update run: %d", r.EffUpdates)
				}
			}},
		{name: "MoveWorkload", kind: trees.SFOpt, d: 60 * time.Millisecond,
			wl: Workload{UpdatePercent: 10, MovePercent: 5, Effective: true},
			check: func(t *testing.T, r Result) {
				if r.EffMoves == 0 {
					t.Fatal("no effective moves despite 5% move mix")
				}
			}},
		{name: "BiasedWorkloadRuns", kind: trees.NR, wl: Workload{UpdatePercent: 20, Biased: true, Effective: true},
			check: didWork},
		{name: "MaxOpReadsRecorded", kind: trees.RB, wl: Workload{UpdatePercent: 30},
			check: func(t *testing.T, r Result) {
				// A lookup on a ~2^7-element balanced tree needs at least ~log2
				// of it in reads; the recorded ceiling cannot be smaller.
				if r.STM.MaxOpReads < 5 {
					t.Fatalf("MaxOpReads = %d, implausibly small", r.STM.MaxOpReads)
				}
			}},
		{name: "RotationsReportedForSF", body: func(t *testing.T) {
			s := stm.New()
			m := trees.New(trees.SFOpt, s)
			wl := Workload{KeyRange: 1 << 8, UpdatePercent: 40, Effective: true}
			fill(m, s, wl.KeyRange, 1)
			sf := m.(*sftree.Tree)
			base := sf.Stats()
			measure(&Opts{Threads: []int{2}, Duration: 80 * time.Millisecond, Seed: 1}, m, s, 2, wl)
			ts := sf.Stats()
			// Measured phase only (the fill's counters are subtracted).
			// The driver's first sweep starts at once and a 2⁸-key tree's
			// takes microseconds, so a completed sweep is the signal.
			if ts.Passes == base.Passes {
				t.Fatalf("maintenance never ran during the measurement: %+v -> %+v", base, ts)
			}
		}},
		{name: "BadOptionsPanicThreads", kind: trees.SF, threads: -1, wl: Workload{KeyRange: 8}},
		{name: "BadOptionsPanicKeyRange", kind: trees.SF, wl: Workload{KeyRange: 1}},
	}
	for _, mode := range []stm.Mode{stm.CTL, stm.ETL, stm.Elastic} {
		rows = append(rows, row{name: "ModesWork" + mode.String(), kind: trees.SF, mode: mode,
			wl: Workload{UpdatePercent: 20, Effective: true}, check: didWork})
	}
	// One row per tree kind, grouped under RunAllKinds/<kind>.
	var kindRows []row
	for _, kind := range trees.Kinds() {
		kindRows = append(kindRows, row{name: string(kind), kind: kind,
			wl: Workload{UpdatePercent: 20, Effective: true}, check: didWork})
	}

	cell := func(t *testing.T, tc row) {
		if tc.golden != nil {
			if got := replay(tc.wl); got != *tc.golden {
				t.Fatalf("op stream shifted: got %+v, want %+v", got, *tc.golden)
			}
			return
		}
		if tc.body != nil {
			tc.body(t)
			return
		}
		o := Opts{Threads: []int{2}, Duration: 30 * time.Millisecond, Seed: 1}
		if tc.d > 0 {
			o.Duration = tc.d
		}
		threads := 2
		if tc.threads != 0 {
			threads = tc.threads
		}
		if tc.wl.KeyRange == 0 {
			tc.wl.KeyRange = 1 << 8
		}
		if tc.check == nil {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
		}
		r := run(&o, tc.kind, tc.mode, threads, tc.wl)
		if tc.check != nil {
			tc.check(t, r)
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) { cell(t, tc) })
	}
	t.Run("RunAllKinds", func(t *testing.T) {
		for _, tc := range kindRows {
			t.Run(tc.name, func(t *testing.T) { cell(t, tc) })
		}
	})
}
