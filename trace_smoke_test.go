package repro

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// traceDoc mirrors the /trace JSON shape.
type traceDoc struct {
	SampleEvery int    `json:"sample_every"`
	Sampled     uint64 `json:"sampled_ops"`
	Spans       []struct {
		TraceID uint64 `json:"trace_id"`
		Kind    string `json:"kind"`
		Op      string `json:"op"`
		DurNs   int64  `json:"dur_ns"`
		A       int64  `json:"a"`
		B       int64  `json:"b"`
	} `json:"spans"`
	SlowOps []struct {
		TraceID uint64 `json:"trace_id"`
		Op      string `json:"op"`
		DurNs   int64  `json:"dur_ns"`
	} `json:"slow_ops"`
}

// TestTraceEndpointSmoke is the `make trace-smoke` CI gate: a short durable
// contended cross-shard workload through the facade with full sampling,
// /trace polled while it runs. The scrapes must prove spans from every
// instrumented layer stitched together: an STM retry (an attempt span that
// aborted or a follow-up attempt), an Atomic transaction's op span with the
// stm.attempt spans of its commit transaction under the same trace id, and
// a WAL append that stretched to its group-commit fsync.
func TestTraceEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live endpoint scrape; skipped in -short")
	}
	// Transactions overlap only where clients run in parallel: on one P
	// nothing yields inside a transaction, so nothing would abort. Two Ps
	// are preempted against each other by the OS even on a one-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	tr, err := Open(t.TempDir(), SpeculationFriendlyOptimized, WithShards(2),
		WithTracing(1), WithObservability("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// 64 keys so that single-key ops, moves, scans and transfers really
	// conflict with each other.
	mix := smokeMix{keys: 1 << 6, transfer: 10, scan: 5, move: 50, update: 10}
	// Poll /trace while the workload runs, accumulating span kinds until
	// every layer has shown up or the deadline passes. Each poll sees the
	// current ring window; the union over polls is what we assert on.
	var doc traceDoc
	ops := hammer(tr, 4, mix, func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			time.Sleep(25 * time.Millisecond)
			resp, err := http.Get("http://" + tr.ObsAddr() + "/trace")
			if err != nil {
				t.Fatalf("GET /trace: %v", err)
			}
			var d traceDoc
			derr := json.NewDecoder(resp.Body).Decode(&d)
			resp.Body.Close()
			if derr != nil {
				t.Fatalf("bad /trace JSON: %v", derr)
			}
			doc.SampleEvery = d.SampleEvery
			doc.Sampled = d.Sampled
			doc.Spans = append(doc.Spans, d.Spans...)
			doc.SlowOps = append(doc.SlowOps, d.SlowOps...)
			if hasAllTraceLayers(doc) {
				return
			}
		}
	})
	if ops == 0 {
		t.Fatal("workload did no operations")
	}

	if doc.SampleEvery != 1 {
		t.Errorf("sample_every = %d, want 1", doc.SampleEvery)
	}
	if doc.Sampled == 0 {
		t.Error("no sampled ops reported")
	}
	kinds := map[string]int{}
	retries, walFsync := 0, 0
	for _, sp := range doc.Spans {
		kinds[sp.Kind]++
		if sp.Kind == "stm.attempt" && (sp.A >= 0 || sp.B > 0) {
			retries++ // an aborted attempt, or any attempt after the first
		}
		if sp.Kind == "wal.append" && sp.DurNs > 0 {
			walFsync++
		}
	}
	for _, k := range []string{"op", "stm.attempt", "wal.append"} {
		if kinds[k] == 0 {
			t.Errorf("mid-run /trace missing %q spans (have %v)", k, kinds)
		}
	}
	if !hasStitchedAtomic(doc) {
		t.Error("no atomic op span with stm.attempt spans under its trace id")
	}
	if retries == 0 {
		t.Error("no STM retry visible in attempt spans despite a contended workload")
	}
	if walFsync == 0 {
		t.Error("no WAL append span stretching to a group-commit fsync")
	}
	if len(doc.SlowOps) == 0 {
		t.Error("slow-op table empty despite full sampling")
	}
}

func hasAllTraceLayers(doc traceDoc) bool {
	var op, attempt, retry, wal bool
	for _, sp := range doc.Spans {
		switch sp.Kind {
		case "op":
			op = true
		case "stm.attempt":
			attempt = true
			if sp.A >= 0 || sp.B > 0 {
				retry = true
			}
		case "wal.append":
			wal = true
		}
	}
	return op && attempt && retry && wal && hasStitchedAtomic(doc)
}

// hasStitchedAtomic reports whether doc holds an op span of kind atomic
// together with an stm.attempt span of the same trace: Atomic's commit
// transaction recorded under the operation that ran it.
func hasStitchedAtomic(doc traceDoc) bool {
	atomicOps, attempts := map[uint64]bool{}, map[uint64]bool{}
	for _, sp := range doc.Spans {
		if sp.Op != "atomic" {
			continue
		}
		switch sp.Kind {
		case "op":
			atomicOps[sp.TraceID] = true
		case "stm.attempt":
			attempts[sp.TraceID] = true
		}
	}
	for id := range atomicOps {
		if attempts[id] {
			return true
		}
	}
	return false
}

// TestTreeTracingFacade exercises repro.WithTracing end to end: the option
// attaches a tracer and serves it at /trace; every
// sampled op shows up with an op span and the per-op-kind latency
// histograms feed op_latency_nanos in the registry.
func TestTreeTracingFacade(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized,
		WithTracing(1), WithObservability("127.0.0.1:0"))
	defer tr.Close()
	if tr.Tracer() == nil {
		t.Fatal("Tracer() nil despite WithTracing")
	}
	h := tr.NewHandle()
	for i := uint64(0); i < 300; i++ {
		h.Insert(i, i)
		h.Get(i)
	}

	body := scrape(t, tr.ObsAddr(), "/trace")
	var doc traceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad /trace JSON: %v", err)
	}
	if doc.Sampled != 600 {
		t.Errorf("sampled_ops = %d, want 600", doc.Sampled)
	}
	kinds := map[string]bool{}
	for _, sp := range doc.Spans {
		kinds[sp.Kind] = true
	}
	if !kinds["op"] || !kinds["stm.attempt"] {
		t.Errorf("facade /trace missing op or attempt spans: %s", body)
	}

	if h := tr.Tracer().OpHistogram(0 /* OpInsert */).Snapshot(); h.Count != 300 {
		t.Errorf("insert latency histogram count = %d, want 300", h.Count)
	}
	metrics := scrape(t, tr.ObsAddr(), "/metrics")
	for _, f := range []string{`op_latency_nanos_count{op="insert"} 300`, "trace_sampled_ops_total 600"} {
		if !strings.Contains(metrics, f) {
			t.Errorf("/metrics missing %q", f)
		}
	}
}

// TestSnapshotSinceWindow checks /snapshot?since=<seq> windowed diffing:
// the second scrape hands back the first's seq and must come back windowed,
// with counter samples showing only the delta between the scrapes. The
// tree runs without maintenance, so the test's own inserts are the only
// commits between the scrapes and the delta is exact.
func TestSnapshotSinceWindow(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized,
		WithShards(2), WithObservability("127.0.0.1:0"), WithoutMaintenance())
	defer tr.Close()
	h := tr.NewHandle()
	for i := uint64(0); i < 100; i++ {
		h.Insert(i, i)
	}

	type snapDoc struct {
		Seq      uint64 `json:"seq"`
		Since    uint64 `json:"since"`
		Windowed bool   `json:"windowed"`
		Samples  []struct {
			Name  string  `json:"name"`
			Label string  `json:"label"`
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	commits := func(d snapDoc) float64 {
		var v float64
		for _, sm := range d.Samples {
			if sm.Name == "stm_commits_total" {
				v += sm.Value
			}
		}
		return v
	}

	var first snapDoc
	if err := json.Unmarshal([]byte(scrape(t, tr.ObsAddr(), "/snapshot")), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq == 0 || first.Windowed {
		t.Fatalf("full snapshot: seq=%d windowed=%t, want seq>0 and un-windowed", first.Seq, first.Windowed)
	}
	base := commits(first)
	if base < 100 {
		t.Fatalf("first snapshot shows %.0f commits, want >= 100", base)
	}

	const extra = 50
	for i := uint64(0); i < extra; i++ {
		h.Insert(1000+i, i)
	}
	var diff snapDoc
	if err := json.Unmarshal([]byte(scrape(t, tr.ObsAddr(), "/snapshot?since="+
		jsonUint(first.Seq))), &diff); err != nil {
		t.Fatal(err)
	}
	if !diff.Windowed || diff.Since != first.Seq || diff.Seq <= first.Seq {
		t.Fatalf("windowed snapshot: seq=%d since=%d windowed=%t", diff.Seq, diff.Since, diff.Windowed)
	}
	// The window holds the delta only: the commits between the scrapes, not
	// the lifetime total.
	if d := commits(diff); d != extra {
		t.Errorf("windowed commits = %.0f, want the delta %d (lifetime total %.0f)", d, extra, base+extra)
	}

	// An aged-out or unknown seq falls back to a full snapshot.
	var fallback snapDoc
	if err := json.Unmarshal([]byte(scrape(t, tr.ObsAddr(), "/snapshot?since=999999")), &fallback); err != nil {
		t.Fatal(err)
	}
	if fallback.Windowed {
		t.Error("unknown since seq must fall back to a full, un-windowed snapshot")
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
