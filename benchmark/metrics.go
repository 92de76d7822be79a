package main

import (
	"fmt"
	"time"
)

// metricDef names one metric. The tables below are the single source of the
// benchmark's metric names, units and bounds; BENCHMARK.json repeats them
// for the driver and bench_test.go holds the two to each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics: what a user of the tree sees, each
// defined (and never zero) on all four workloads. A bound is the share of
// the parent's median by which a change may worsen the metric. All sit at
// the largest value the driver allows, because that is what this host
// supports: ten runs of one commit spread (distance between quartiles over
// the median) by 3-9 % on these, and two sets of ten an hour apart differ
// by up to 9 % when the host changes speed between them (README.md, "Noise
// protocol"). The two p99s are measured the same way and are not gated:
// on durable-large they follow the host's speed twice as closely as the
// medians do (21 and 23 % between two sets of the same commit).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"read_p50_ns", "ns", "lower", 0.25},
	{"write_p50_ns", "ns", "lower", 0.25},
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Slices holds, for every metric that is a median over slices (or over
	// repeated set-ups or recoveries), the quartiles and the sample count.
	Slices map[string]summary `json:"slices"`
	Notes  map[string]string  `json:"notes,omitempty"`
	// Claim is always null: the benchmark is a yardstick and claims nothing.
	Claim *string `json:"claim"`
}

func newResult(w *workload, p plan, trace int) *result {
	return &result{Workload: w.name, Seed: p.seed, Trace: trace, Correct: true,
		Values: map[string]float64{}, Slices: map[string]summary{}, Notes: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

func (r *result) setMedian(name string, samples []float64) {
	s := summarize(samples)
	r.Values[name] = s.Median
	r.Slices[name] = s
}

func (r *result) fail(err error) {
	r.Correct = false
	if r.Error == "" {
		r.Error = err.Error()
	}
}

// sliced are the end-to-end metrics computed on every measured slice. The
// two p99s are not gated (see perLayer): an untraced run lists them after
// the gated ones.
var sliced = []struct {
	name string
	f    func(s *sliceStat) float64
}{
	{"throughput_ops_s", func(s *sliceStat) float64 { return float64(s.ops) / s.secs }},
	{"read_p50_ns", func(s *sliceStat) float64 { return s.lat[classRead].quantile(0.50) }},
	{"user.read_p99_ns", func(s *sliceStat) float64 { return s.lat[classRead].quantile(0.99) }},
	{"write_p50_ns", func(s *sliceStat) float64 { return s.lat[classWrite].quantile(0.50) }},
	{"user.write_p99_ns", func(s *sliceStat) float64 { return s.lat[classWrite].quantile(0.99) }},
}

// runEndToEnd is the untraced run: p.rounds times set-up, warm-up, measured
// slices and correctness checks. Everything the driver gates comes from here.
//
// Every time and rate is reported at the host's reference speed. This host
// has a fast and a slow regime, tens of minutes each, 20-35 % apart for a
// working set that lives in the shared last-level cache (a neighbour on the
// machine; within a regime ten runs agree to 2-5 %). The clients therefore
// time a reference memory walk of the workload's footprint at the start of
// every slice, and the run's numbers are scaled by the walk's nominal rate
// (workload.walkRate, its rate in the fast regime) over its median rate in
// this run: a run measured while the host served memory 25 % slower reads
// 25 % faster than the clock said. The unscaled medians are reported next
// to them as raw.<name>, and the walk's rate as walk_hops_per_ns.
func runEndToEnd(w *workload, p plan) *result {
	r := newResult(w, p, 0)
	// Every round walks arrays of its own, and all stay allocated to the end
	// of the run (0.5 GB on durable-large), so that each pair lies in memory
	// of its own: how fast an array is walked depends, for as long as it
	// lives, on where the host put it (10-20 % between the two arrays of one
	// process), and the run's reference is the median over all placements.
	var walks [][clients]*walk
	raw := map[string][]float64{}
	var speeds []float64
	var latencySamples uint64
	for round := 0; round < p.rounds; round++ {
		start := time.Now()
		e, err := setUp(w, p, round)
		if err != nil {
			r.fail(err)
			return r
		}
		raw["setup_s"] = append(raw["setup_s"], time.Since(start).Seconds())
		walks = append(walks, [clients]*walk{})
		for c := range clients {
			walks[round][c] = newWalk(w, p.seed+uint64(round)<<32+uint64(c))
		}
		ph := e.runClients(p, nil, &walks[round])
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		latencySamples += ph.latencySamples
		for _, c := range ph.clients {
			speeds = append(speeds, c.speed...)
		}
		stats := ph.sliceStats(p)
		for i := range stats {
			for _, m := range sliced {
				raw[m.name] = append(raw[m.name], m.f(&stats[i]))
			}
		}
		if err := e.verify(); err != nil {
			r.fail(fmt.Errorf("round %d: %w", round, err))
		}
		if w.durable && round == p.rounds-1 {
			// Recovery time is not gated (see README), but the check that a
			// reopened tree equals the closed one belongs to every run.
			p.reopens = 1
			if _, err := e.recoveryTail(p); err != nil {
				r.fail(err)
			}
		}
		e.close()
	}
	if r.Failed != 0 {
		r.fail(fmt.Errorf("%d of %d operations returned an unexpected result", r.Failed, r.Attempted))
	}
	r.setMedian("walk_hops_per_ns", speeds)
	slow := w.walkRate / r.Values["walk_hops_per_ns"] // > 1 when the host is slower than nominal
	for name, v := range raw {
		r.setMedian("raw."+name, v)
		scale := 1 / slow
		if name == "throughput_ops_s" {
			scale = slow
		}
		s := r.Slices["raw."+name]
		r.Values[name] = s.Median * scale
		r.Slices[name] = summary{Median: s.Median * scale, Q1: s.Q1 * scale, Q3: s.Q3 * scale, N: s.N}
	}
	r.Notes["latency_samples"] = fmt.Sprint(latencySamples)
	return r
}
