package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps each experiment's smoke test fast: minimal thread counts
// and millisecond cells. The point of these tests is that every experiment
// runs end to end and emits the expected row structure, not the numbers.
func tinyOpts(buf *bytes.Buffer) Opts {
	return Opts{
		Out:          buf,
		Scale:        Quick,
		Threads:      []int{1, 2},
		Duration:     10 * time.Millisecond,
		Seed:         7,
		KeyRange:     1 << 8, // keep per-cell fill negligible
		VacRelations: 48,
		VacBaseTx:    96,
	}
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "AVLtree", "RBtree", "SFtree", "Opt SFtree", "50%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestTable1UsesMaxThreads: the single-thread-count experiments run at the
// largest swept count, however -threads was ordered.
func TestTable1UsesMaxThreads(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	o.Threads = []int{8, 1}
	o.Duration = 2 * time.Millisecond
	if err := Table1(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2^12-sized trees, 8 threads, CTL") {
		t.Fatalf("Table 1 header does not claim 8 threads:\n%s", buf.String())
	}
}

func TestFig3Runs(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	if err := Fig3(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"normal workload", "biased workload", "5% updates", "20% updates", "NRtree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig4Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(tinyOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E-STM") || !strings.Contains(out, "TinySTM-ETL") {
		t.Fatalf("missing TM sections:\n%s", out)
	}
}

func TestFig5aRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5a(tinyOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5(a)", "Elastic speedup", "mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig5bRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5b(tinyOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5(b)", "1% move", "10% move"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("vacation macro-benchmark")
	}
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	if err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"high contention", "low contention", "baseline: RBtree at 1 thread, median of 3", "RBtree speedup", "[rotations]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestOptsDefaults(t *testing.T) {
	var buf bytes.Buffer
	o := Opts{Out: &buf}
	o.defaults()
	if len(o.Threads) == 0 || o.Duration == 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	full := Opts{Out: &buf, Scale: Full}
	full.defaults()
	if full.Threads[len(full.Threads)-1] != 48 {
		t.Fatal("full scale should sweep to 48 threads as the paper does")
	}
}

func TestOptsRequiresOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing Out must panic")
		}
	}()
	o := Opts{}
	o.defaults()
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tb := &table{header: []string{"a", "long-header"}}
	tb.addRow("x", "1")
	tb.addRow("yyyy", "2")
	tb.write(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned: %q vs %q", lines[0], lines[1])
	}
}
