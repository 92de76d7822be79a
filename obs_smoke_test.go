package repro

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/trees"
)

// scrape fetches one path from the observability endpoint.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body)
}

// TestObsEndpointSmoke runs a short durable sharded benchmark with the
// observability endpoint live and scrapes /metrics in the middle of the
// hammer phase: every layer's families — STM taxonomy per shard, tree
// maintenance, maintenance pool, cross-shard coordinator, WAL/checkpoint,
// Go runtime — must be present in one exposition, served while the
// workload is running. This is the `make obs-smoke` CI gate.
func TestObsEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live endpoint scrape; skipped in -short")
	}
	addrCh := make(chan string, 1)
	bodyCh := make(chan string, 1)
	go func() {
		// Scrape as soon as the endpoint is up — the hammer phase is still
		// running then, which is the point of the test.
		addr := <-addrCh
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			bodyCh <- "ERR " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		bodyCh <- string(body)
	}()

	res := bench.Run(bench.Options{
		Kind:     trees.SFOpt,
		Threads:  2,
		Duration: 400 * time.Millisecond,
		Workload: bench.Workload{
			KeyRange:      1 << 10,
			UpdatePercent: 20,
			XactFrac:      0.05,
			XactKeys:      2,
		},
		Seed:    7,
		Shards:  2,
		CM:      "backoff",
		Durable: true,
		ObsAddr: "127.0.0.1:0",
		ObsReady: func(addr string) {
			addrCh <- addr
		},
	})
	if res.Ops == 0 {
		t.Fatal("benchmark did no operations")
	}

	body := <-bodyCh
	if strings.HasPrefix(body, "ERR ") {
		t.Fatalf("mid-run scrape failed: %s", body)
	}
	families := []string{
		// STM layer, per shard, with the abort-cause taxonomy.
		`stm_commits_total{shard="0"}`,
		`stm_commits_total{shard="1"}`,
		`stm_abort_cause_total{shard="0",cause="validation"}`,
		`stm_abort_cause_total{shard="0",cause="unlogged"}`,
		// Tree maintenance layer.
		`sftree_hints_emitted_total{shard="0"}`,
		`sftree_rotations_total{shard="1"}`,
		// Maintenance worker pool.
		"forest_pool_workers",
		"forest_hint_backlog",
		// Cross-shard coordinator.
		"ftx_commits_total",
		// Durable layer.
		"durable_wal_records_total",
		"durable_checkpoints_total",
		"durable_sync_nanos",
		// Go runtime.
		"go_goroutines",
		"go_gc_pause_p99_ns",
	}
	for _, f := range families {
		if !strings.Contains(body, f) {
			t.Errorf("mid-run /metrics missing %q", f)
		}
	}
	if t.Failed() {
		t.Logf("exposition was:\n%s", body)
	}
}

// TestTreeObservabilityFacade exercises repro.WithObservability end to
// end on a volatile sharded tree: endpoint live, families served, flight
// recorder reachable, everything torn down by Close.
func TestTreeObservabilityFacade(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized,
		WithShards(2), WithObservability("127.0.0.1:0"))
	defer tr.Close()
	if tr.Obs() == nil || tr.FlightRecorder() == nil {
		t.Fatal("observability accessors nil despite WithObservability")
	}
	addr := tr.ObsAddr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	h := tr.NewHandle()
	for i := uint64(0); i < 500; i++ {
		h.Insert(i, i)
	}
	body := scrape(t, addr, "/metrics")
	for _, f := range []string{`stm_commits_total{shard="0"}`, "go_goroutines"} {
		if !strings.Contains(body, f) {
			t.Errorf("/metrics missing %q", f)
		}
	}
	snap := tr.Obs().Snapshot()
	var commits float64
	for _, sm := range snap.Samples {
		if sm.Name == "stm_commits_total" {
			commits += sm.Value
		}
	}
	if commits < 500 {
		t.Errorf("registry reports %.0f commits, want >= 500", commits)
	}

	// The taxonomy invariant holds at the registry surface too: per-cause
	// series sum to the abort total.
	var aborts, causeSum float64
	for _, sm := range snap.Samples {
		switch sm.Name {
		case "stm_aborts_total":
			aborts += sm.Value
		case "stm_abort_cause_total":
			causeSum += sm.Value
		}
	}
	if aborts != causeSum {
		t.Errorf("abort causes sum to %.0f, aborts are %.0f", causeSum, aborts)
	}
}

// TestDurableTreeObservability checks the durable facade path: recovery
// lands in the flight recorder and WAL families register.
func TestDurableTreeObservability(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, SpeculationFriendlyOptimized, WithObservability(""))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle()
	for i := uint64(0); i < 100; i++ {
		h.Insert(i, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Obs().Snapshot()
	if v, ok := snap.Get("durable_wal_records_total", ""); !ok || v < 100 {
		t.Errorf("durable_wal_records_total = %v (ok=%t), want >= 100", v, ok)
	}
	evs := tr.FlightRecorder().Events()
	found := false
	for _, ev := range evs {
		if ev.Kind.String() == "recovery" {
			found = true
		}
	}
	if !found {
		t.Errorf("no recovery event in the flight recorder (have %d events)", len(evs))
	}
	tr.Close()

	// Reopen: the recovery of the 100 inserts must appear with its op count.
	tr2, err := Open(dir, SpeculationFriendlyOptimized, WithObservability(""))
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	var rec bool
	for _, ev := range tr2.FlightRecorder().Events() {
		if ev.Kind.String() == "recovery" && ev.A > 0 {
			rec = true
		}
	}
	if !rec {
		t.Error("reopened tree's flight recorder lacks a recovery event with applied ops")
	}
}
