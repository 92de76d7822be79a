package obs

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// snapCacheSize bounds the server-side window cache for /snapshot?since:
// the last N snapshots served are kept so a scraper can hand its previous
// response's seq back and receive a Registry.Diff against it.
const snapCacheSize = 8

type snapCacheEntry struct {
	seq  uint64
	snap Snapshot
}

type snapCache struct {
	mu      sync.Mutex
	nextSeq uint64
	ring    [snapCacheSize]snapCacheEntry
}

// store caches snap and returns its sequence number (starting at 1).
func (c *snapCache) store(snap Snapshot) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSeq++
	c.ring[c.nextSeq%snapCacheSize] = snapCacheEntry{seq: c.nextSeq, snap: snap}
	return c.nextSeq
}

// get returns the cached snapshot with the given sequence number, if it is
// still within the window.
func (c *snapCache) get(seq uint64) (Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ring[seq%snapCacheSize]
	if e.seq != seq || seq == 0 {
		return Snapshot{}, false
	}
	return e.snap, true
}

// Handler returns the observability mux for a registry: Prometheus-text
// /metrics, a JSON snapshot at /snapshot (with ?since=<seq> windowed
// diffing against a recent response), the flight-recorder dump at /flight,
// the span tracer's /trace, and the standard net/http/pprof tree under
// /debug/pprof/.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	var sc snapCache
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		cur := r.Snapshot()
		seq := sc.store(cur)
		if s := req.URL.Query().Get("since"); s != "" {
			since, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			if prev, ok := sc.get(since); ok {
				cur.Diff(prev).WriteJSONWindow(w, seq, since, true)
				return
			}
			// Unknown or aged-out seq: fall through to the full snapshot,
			// which resets the scraper's baseline.
		}
		cur.WriteJSONWindow(w, seq, 0, false)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		t := r.Tracer()
		if t == nil {
			http.Error(w, "no tracer attached (repro.WithTracing)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		t.WriteJSON(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		f := r.Flight()
		if f == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		f.WriteTo(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "repro observability endpoint\n\n/metrics\n/snapshot\n/trace\n/flight\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (e.g. ":9100" or
// "127.0.0.1:0") and returns once it is listening. It never blocks the
// caller's hot path: all collection work happens per request.
func Serve(addr string, r *Registry) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{l: l, srv: &http.Server{Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(l)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// RegisterRuntime registers a collector exposing a small set of Go runtime
// health series: goroutine count, heap bytes, and the GC pause p99 over
// the process lifetime (from runtime/metrics).
func RegisterRuntime(r *Registry) {
	samples := []metrics.Sample{
		{Name: "/gc/pauses:seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "go_goroutines", Kind: KindGauge, Help: "Number of live goroutines.", Value: float64(runtime.NumGoroutine())})
		metrics.Read(samples)
		if h := samples[0].Value; h.Kind() == metrics.KindFloat64Histogram {
			emit(Sample{Name: "go_gc_pause_p99_ns", Kind: KindGauge,
				Help:  "p99 GC pause over the process lifetime, nanoseconds.",
				Value: float64(histQuantileNanos(h.Float64Histogram(), 0.99))})
		}
		if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
			emit(Sample{Name: "go_heap_objects_bytes", Kind: KindGauge, Help: "Heap memory occupied by live objects.", Value: float64(v.Uint64())})
		}
	})
}

// histQuantileNanos returns the q-th quantile of a runtime/metrics
// seconds histogram, in nanoseconds.
func histQuantileNanos(h *metrics.Float64Histogram, q float64) uint64 {
	if h == nil {
		return 0
	}
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Bucket i spans (Buckets[i], Buckets[i+1]]; report the upper
			// edge. The first/last edges can be +-Inf.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 0) || math.IsNaN(hi) {
				hi = h.Buckets[i]
			}
			if hi < 0 || math.IsInf(hi, 0) || math.IsNaN(hi) {
				hi = 0
			}
			return uint64(hi * 1e9)
		}
	}
	return 0
}
