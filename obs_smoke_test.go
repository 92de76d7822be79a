package repro

import (
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// smokeMix is the op mix of a smoke run over keys [0, keys), in percent of
// operations: cross-shard Atomic swaps, Range scans of a quarter of the key
// space, Moves, and Insert/Delete; the rest are Contains.
type smokeMix struct {
	keys                         uint64
	transfer, scan, move, update int
}

// hammer drives workers closed-loop goroutines of mix against tr, one Handle
// each, for as long as probe runs, and returns the operations they
// completed. The workers are stopped and waited for even when probe fails
// the test, so the tree is quiet by the time the caller closes it.
func hammer(tr *Tree, workers int, mix smokeMix, probe func()) (ops uint64) {
	stop := make(chan struct{})
	var done atomic.Uint64
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
		ops = done.Load()
	}()
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			key := func() uint64 { return uint64(rng.Int63n(int64(mix.keys))) }
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					done.Add(n)
					return
				default:
				}
				switch p := rng.Intn(100); {
				case p < mix.transfer:
					a, b := key(), key()
					for tr.f.ShardOf(a) == tr.f.ShardOf(b) {
						b = key()
					}
					h.Atomic(func(tx *Txn) error {
						va, _ := tx.Get(a)
						vb, _ := tx.Get(b)
						tx.Put(a, vb)
						tx.Put(b, va)
						return nil
					})
				case p < mix.transfer+mix.scan:
					lo := key()
					h.Range(lo, lo+mix.keys/4, func(_, _ uint64) bool { return true })
				case p < mix.transfer+mix.scan+mix.move:
					h.Move(key(), key())
				case p < mix.transfer+mix.scan+mix.move+mix.update:
					if k := key(); rng.Intn(2) == 0 {
						h.Insert(k, k)
					} else {
						h.Delete(k)
					}
				default:
					h.Contains(key())
				}
			}
		}()
	}
	probe()
	return
}

// TestObsEndpointSmoke runs a short durable sharded workload through the
// facade with the observability endpoint live and scrapes /metrics in the
// middle of it: every layer's families — STM taxonomy, tree maintenance
// per shard, maintenance pool, Atomic coordinator, WAL/checkpoint,
// Go runtime — must be present in one exposition, served while the
// workload is running. This is the `make obs-smoke` CI gate.
func TestObsEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live endpoint scrape; skipped in -short")
	}
	tr, err := Open(t.TempDir(), SpeculationFriendlyOptimized, WithShards(2),
		WithContention(ContentionBackoff), WithObservability("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var body string
	ops := hammer(tr, 2, smokeMix{keys: 1 << 10, transfer: 5, update: 20}, func() {
		time.Sleep(100 * time.Millisecond)
		body = scrape(t, tr.ObsAddr(), "/metrics")
	})
	if ops == 0 {
		t.Fatal("workload did no operations")
	}

	families := []string{
		// STM layer (one domain), with the abort-cause taxonomy.
		"stm_commits_total ",
		`stm_abort_cause_total{cause="validation"}`,
		`stm_abort_cause_total{cause="unlogged"}`,
		// Tree maintenance layer.
		`sftree_maint_passes_total{shard="0"}`,
		`sftree_rotations_total{shard="1"}`,
		`sftree_height_estimate{shard="1"}`,
		`sftree_node_bytes{shard="0"}`,
		// Maintenance worker pool.
		"forest_pool_workers",
		"forest_pool_busy_nanos_total",
		"forest_pool_sweeps_total",
		// Atomic coordinator.
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
	// Node chunks are outside the Go heap on Linux; the gauge must still
	// count at least the one 2 MiB chunk every arena holds.
	if v, ok := tr.Obs().Snapshot().Get("sftree_node_bytes", `shard="0"`); !ok || v < 2<<20 {
		t.Errorf(`sftree_node_bytes{shard="0"} = %v (ok=%t), want >= 2 MiB`, v, ok)
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
	for _, f := range []string{"stm_commits_total ", "go_goroutines"} {
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
