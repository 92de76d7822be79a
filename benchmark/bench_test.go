package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables that actually produce
// the numbers, and the tables to the limits of the driver's contract.
func TestManifest(t *testing.T) {
	want := buildManifest()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.json()) {
		t.Error("BENCHMARK.json is not what the tables say; regenerate it: go run ./benchmark -manifest > BENCHMARK.json")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, 2 to 8 allowed", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, 1 to 16 allowed", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, 1 to 128 allowed", n)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, file %d bytes", want.RunSeconds, len(raw))
	}
	seen := map[string]bool{}
	setup := false
	for _, e := range slices.Concat(want.Workloads, want.EndToEnd, want.PerLayer) {
		if !nameRE.MatchString(e.Name) || seen[e.Name] {
			t.Errorf("name %q is malformed or used twice", e.Name)
		}
		seen[e.Name] = true
		if e.Why != "" {
			if len(e.Why) > 200 {
				t.Errorf("why of %s is %d characters", e.Name, len(e.Why))
			}
			continue
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", e.Name, e.Unit, e.Better)
		}
		if e.Bound != nil && (*e.Bound <= 0 || *e.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", e.Name, *e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" && e.Bound != nil)
	}
	if !setup {
		t.Error("no end-to-end setup_s with unit s and better lower")
	}
}

// contract is the last line of standard output as the driver reads it.
type contract struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func checkLine(t *testing.T, r *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !r.Correct {
		t.Fatalf("%s trace %d: not correct: %s", r.Workload, r.Trace, r.Error)
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(r.contractLine(defs))))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if !c.Correct || c.Attempted < 1 || c.Failed != 0 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", r.Workload, c.Correct, c.Attempted, c.Failed)
	}
	if len(c.Metrics) != len(defs) {
		t.Errorf("%s trace %d: %d metrics printed, %d defined", r.Workload, r.Trace, len(c.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := c.Metrics[d.Name]
		if _, measured := r.Values[d.Name]; !ok || !measured {
			t.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %v %q", r.Workload, d.Name, m.Value, m.Unit)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.Name, m.Value)
		}
	}
}

// TestQuickPass runs all four workloads, untraced and traced with the whole
// ladder, at about 1/100 size: every metric named in BENCHMARK.json is
// produced for every workload, finite and with its unit, and every
// correctness check the benchmark makes passes.
func TestQuickPass(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	for _, full := range workloads {
		w, p := full.scaled(quickDiv), quickPlan(7, dir)
		e2e := runEndToEnd(w, p)
		checkLine(t, e2e, endToEnd, true)
		traced := runTraced(w, p)
		checkLine(t, traced, perLayer, false)
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		for _, r := range []*result{e2e, traced} {
			if err := r.appendTo(out); err != nil {
				t.Fatal(err)
			}
		}
		// Layers the workload does not use must read zero in its counters.
		if !w.durable && (traced.Values["durable.syncs_per_s"] != 0 || traced.Values["user.disk_bytes_per_update"] != 0) {
			t.Errorf("%s: durable counters moved on a volatile tree", w.name)
		}
		if usesAtomic := w.name == "xshard-transfer"; !usesAtomic && traced.Values["stm.prepares_per_xact"] != 0 {
			t.Errorf("%s: ftx counters moved without any Atomic call", w.name)
		}
	}
	var report bytes.Buffer
	regressed, err := compareFiles(&report, out, out)
	if err != nil || regressed {
		t.Errorf("comparing a set of runs with itself: regressed %v, err %v\n%s", regressed, err, report.String())
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "[wl]a[ld]*-*")); len(leftovers) != 0 {
		t.Errorf("durable directories left behind: %v", leftovers)
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	for _, v := range []uint64{1, 127, 128, 129, 255, 256, 1000, 12345, 999_999, 123_456_789, 1 << 39} {
		var h hist
		h.record(v)
		if got := h.quantile(0.5); math.Abs(got-float64(v)) > 0.01*float64(v) {
			t.Errorf("value %d read back as %v", v, got)
		}
	}
	var h hist
	for v := uint64(1); v <= 1000; v++ {
		h.record(v * 100)
	}
	if p50, p99 := h.quantile(0.5), h.quantile(0.99); math.Abs(p50-50_100) > 501 || math.Abs(p99-99_100) > 991 {
		t.Errorf("p50 %v, p99 %v of 100..100000", p50, p99)
	}
}

// TestSummarizeMatchesPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the noise protocol is stated in.
func TestSummarizeMatchesPython(t *testing.T) {
	s := summarize([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("quartiles of 1..10 = %+v, want 2.75 5.5 8.25", s)
	}
	s = summarize([]float64{3, 1})
	if s.Q1 != 0.5 || s.Median != 2 || s.Q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %+v, want 0.5 2 3.5", s)
	}
}
