package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket scheme: bucket i
// holds values v with bits.Len64(v) == i, upper bound 2^i - 1.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21},
		{1<<20 - 1, 20},
		{^uint64(0), 64},
	}
	for _, tc := range cases {
		var h Histogram
		h.Record(tc.v)
		s := h.Snapshot()
		for i, c := range s.Buckets {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Record(%d): bucket[%d] = %d, want %d", tc.v, i, c, want)
			}
		}
		if up := BucketUpper(tc.bucket); up < tc.v {
			t.Errorf("BucketUpper(%d) = %d < recorded value %d", tc.bucket, up, tc.v)
		}
		if tc.bucket > 0 {
			if lo := BucketUpper(tc.bucket - 1); lo >= tc.v {
				t.Errorf("value %d should be above bucket %d's bound %d", tc.v, tc.bucket-1, lo)
			}
		}
	}
}

func TestHistogramQuantileAndSub(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(100) // bucket 7, upper 127
	}
	for i := 0; i < 10; i++ {
		h.Record(100000) // bucket 17, upper 131071
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if q := s.Quantile(0.50); q != 127 {
		t.Errorf("p50 = %d, want 127", q)
	}
	if q := s.Quantile(0.99); q != 131071 {
		t.Errorf("p99 = %d, want 131071", q)
	}
	h.Record(100)
	d := h.Snapshot().Sub(s)
	if d.Count != 1 || d.Sum != 100 {
		t.Errorf("diff = count %d sum %d, want 1/100", d.Count, d.Sum)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h", "h") != r.Histogram("h", "h") {
		t.Fatal("same name must return the same histogram")
	}
}

// TestRegistryStress runs writers on owned metrics and collectors against
// concurrent Snapshot calls; under -race this is the data-race gate for
// the whole scrape path.
func TestRegistryStress(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stress_total", "")
	g := r.Gauge("stress_gauge", "")
	h := r.Histogram("stress_hist", "")
	var collectorVal Counter
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "stress_collected_total", Kind: KindCounter, Value: float64(collectorVal.Load())})
	})

	const writers = 4
	const perWriter = 10000
	var wg, scanWG sync.WaitGroup
	stop := make(chan struct{})
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := r.Snapshot()
				if len(snap.Samples) < 4 {
					t.Errorf("snapshot has %d samples, want >= 4", len(snap.Samples))
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Record(uint64(i))
				collectorVal.Inc()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	for w := 0; w < writers; w++ {
		// Late registration racing Snapshot must also be clean.
		r.Counter(fmt.Sprintf("late_%d", w), "")
	}
	wg.Wait()
	close(stop)
	scanWG.Wait()

	snap := r.Snapshot()
	if v, ok := snap.Get("stress_total", ""); !ok || v != writers*perWriter {
		t.Errorf("stress_total = %v, want %d", v, writers*perWriter)
	}
	if v, ok := snap.Get("stress_collected_total", ""); !ok || v != writers*perWriter {
		t.Errorf("stress_collected_total = %v, want %d", v, writers*perWriter)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_total", "")
	g := r.Gauge("d_gauge", "")
	c.Add(10)
	g.Set(5)
	s0 := r.Snapshot()
	c.Add(7)
	g.Set(3)
	d := r.Snapshot().Diff(s0)
	if v, _ := d.Get("d_total", ""); v != 7 {
		t.Errorf("counter diff = %v, want 7", v)
	}
	if v, _ := d.Get("d_gauge", ""); v != 3 {
		t.Errorf("gauge must pass through current value, got %v", v)
	}
}

// TestAllocFree is the hot-path allocation gate: counter increments,
// histogram records and flight-recorder events must not allocate.
func TestAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	h := r.Histogram("a_hist", "")
	g := r.Gauge("a_gauge", "")
	fr := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(12345) }); n != 0 {
		t.Errorf("Histogram.Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Set(1) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { fr.Record(EvMaintSweep, 0, 1, 2) }); n != 0 {
		t.Errorf("FlightRecorder.Record allocates %v/op, want 0", n)
	}
}

func TestFlightWraparound(t *testing.T) {
	fr := NewFlightRecorder(16)
	const total = 40
	for i := 0; i < total; i++ {
		fr.Record(EvMaintSweep, time.Duration(i), int64(i), 0)
	}
	evs := fr.Events()
	if len(evs) == 0 || len(evs) > 16 {
		t.Fatalf("got %d events, want 1..16 after wraparound", len(evs))
	}
	// Oldest-first, and only the newest window survives.
	for i := 1; i < len(evs); i++ {
		if evs[i].A <= evs[i-1].A {
			t.Fatalf("events out of order: A=%d then A=%d", evs[i-1].A, evs[i].A)
		}
	}
	if last := evs[len(evs)-1].A; last != total-1 {
		t.Errorf("newest surviving event A = %d, want %d", last, total-1)
	}
	if first := evs[0].A; first < total-16 {
		t.Errorf("oldest surviving event A = %d, want >= %d", first, total-16)
	}
}

func TestFlightConcurrent(t *testing.T) {
	fr := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				fr.Record(EvMaintSweep, 0, int64(i), int64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if evs := fr.Events(); len(evs) == 0 {
				t.Fatal("no events survived")
			}
			return
		default:
			fr.Events() // must be race- and tear-free against writers
		}
	}
}

func TestFlightPanicDump(t *testing.T) {
	fr := NewFlightRecorder(16)
	var buf bytes.Buffer
	fr.SetDumpWriter(&buf)
	fr.Record(EvCheckpointFull, 3*time.Millisecond, 1024, 10)
	fr.Record(EvWALStall, time.Millisecond, 4096, 0)

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic was swallowed")
			}
			if r != "boom" {
				t.Fatalf("panic value = %v, want boom", r)
			}
		}()
		defer fr.DumpOnPanic()
		panic("boom")
	}()

	out := buf.String()
	if !strings.Contains(out, "flight recorder (2 events)") {
		t.Errorf("dump header missing: %q", out)
	}
	if !strings.Contains(out, "checkpoint.full") || !strings.Contains(out, "wal.stall") {
		t.Errorf("dump missing events: %q", out)
	}
}

func TestFlightNoPanicNoDump(t *testing.T) {
	fr := NewFlightRecorder(16)
	var buf bytes.Buffer
	fr.SetDumpWriter(&buf)
	func() { defer fr.DumpOnPanic() }()
	if buf.Len() != 0 {
		t.Errorf("dump written without a panic: %q", buf.String())
	}
}

func TestGroupConsistency(t *testing.T) {
	g := NewGroup(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Begin()
			g.Set(0, i)
			g.Set(1, 2*i)
			g.Set(2, 3*i)
			g.End()
		}
	}()
	var v [3]uint64
	for i := 0; i < 10000; i++ {
		g.Read(v[:])
		if v[1] != 2*v[0] || v[2] != 3*v[0] {
			t.Fatalf("torn read: %v", v)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWritePrometheusGolden pins the exposition format end to end:
// family headers, labeled series ordering, histogram bucket/sum/count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_ops_total", "Operations.").Add(3)
	r.Gauge("aa_depth", "Depth.").Set(2)
	h := r.Histogram("mm_nanos", "Latency.")
	h.Record(0)
	h.Record(5) // bucket 3, upper 7
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "bb_shard_total", Label: `shard="0"`, Kind: KindCounter, Help: "Per shard.", Value: 1})
		emit(Sample{Name: "bb_shard_total", Label: `shard="1"`, Kind: KindCounter, Help: "Per shard.", Value: 2})
	})

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_depth Depth.
# TYPE aa_depth gauge
aa_depth 2
# HELP bb_shard_total Per shard.
# TYPE bb_shard_total counter
bb_shard_total{shard="0"} 1
bb_shard_total{shard="1"} 2
# HELP mm_nanos Latency.
# TYPE mm_nanos histogram
mm_nanos_bucket{le="0"} 1
mm_nanos_bucket{le="1"} 1
mm_nanos_bucket{le="3"} 1
mm_nanos_bucket{le="7"} 2
mm_nanos_bucket{le="+Inf"} 2
mm_nanos_sum 5
mm_nanos_count 2
# HELP zz_ops_total Operations.
# TYPE zz_ops_total counter
zz_ops_total 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv_total", "Srv.").Add(9)
	fr := NewFlightRecorder(16)
	fr.Record(EvRecovery, time.Millisecond, 100, 200)
	r.SetFlight(fr)
	RegisterRuntime(r)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"srv_total 9", "# TYPE srv_total counter", "go_goroutines"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body = get("/snapshot"); code != 200 || !strings.Contains(body, `"srv_total"`) {
		t.Errorf("/snapshot status %d body %q", code, body)
	}
	if code, body = get("/flight"); code != 200 || !strings.Contains(body, "recovery") {
		t.Errorf("/flight status %d body %q", code, body)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
	if code, _ = get("/"); code != 200 {
		t.Errorf("index status %d", code)
	}
}

func TestServerNoFlight(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/flight without a recorder: status %d, want 404", resp.StatusCode)
	}
}

func TestNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(EvMaintSweep, 0, 1, 2) // must not panic
	if evs := fr.Events(); evs != nil {
		t.Errorf("nil recorder events = %v", evs)
	}
	var r *Registry
	if r.Flight() != nil {
		t.Error("nil registry flight != nil")
	}
	if snap := r.Snapshot(); len(snap.Samples) != 0 {
		t.Error("nil registry snapshot has samples")
	}
}
