package forest

import (
	"strconv"

	"repro/internal/ftx"
	"repro/internal/obs"
)

// SetFlightRecorder attaches a flight recorder to the forest: productive
// maintenance sweeps and the Atomic coordinators' abort storms record into
// it from now on. Safe to attach while the forest is in use; a nil
// recorder detaches. The attached WAL (if any) keeps its own recorder —
// see durable.Log.SetFlightRecorder.
func (f *Forest) SetFlightRecorder(fr *obs.FlightRecorder) {
	f.fr.Store(fr)
	f.drv.SetFlightRecorder(fr)
	f.coordMu.Lock()
	for _, c := range f.coords {
		c.SetFlightRecorder(fr)
	}
	f.coordMu.Unlock()
}

// SetTracer attaches a span tracer to the forest: from now on every handle
// samples its operations through it (handle.go), recording facade-op,
// STM-attempt and WAL-append spans. Safe to attach
// while the forest is in use; a nil tracer detaches. The attached WAL keeps
// its own tracer reference — see durable.Log.SetTracer.
func (f *Forest) SetTracer(t *obs.Tracer) {
	f.tracer.Store(t)
}

// RegisterObs registers every layer of the forest with an observability
// registry: the domain's STM commit/abort/cause series, per-shard tree
// maintenance counters (shard="i" labels) for kinds that expose them, the
// maintenance worker pool's gauges and counters, and the aggregated
// Atomic coordinator series. All
// collection paths read atomics or seqlock mirrors — a scrape never pauses
// application or maintenance threads.
func (f *Forest) RegisterObs(r *obs.Registry) {
	f.stm.RegisterObs(r, "")
	for i, m := range f.maps {
		label := `shard="` + strconv.Itoa(i) + `"`
		if sf, ok := m.(interface {
			RegisterObs(*obs.Registry, string)
		}); ok {
			sf.RegisterObs(r, label)
		}
	}
	r.RegisterCollector(func(emit func(obs.Sample)) {
		ps := f.PoolStats()
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Kind: obs.KindCounter, Help: help, Value: float64(v)})
		}
		emit(obs.Sample{Name: "forest_pool_workers", Kind: obs.KindGauge, Help: "Maintenance pool size.", Value: float64(ps.Workers)})
		counter("forest_pool_busy_nanos_total", "Cumulative time workers spent sweeping.", ps.BusyNanos)
		counter("forest_pool_sweeps_total", "Maintenance sweeps.", ps.Sweeps)
	})
	r.RegisterCollector(func(emit func(obs.Sample)) {
		f.coordMu.Lock()
		coords := make([]*ftx.Coordinator, len(f.coords))
		copy(coords, f.coords)
		f.coordMu.Unlock()
		var st ftx.Stats
		for _, c := range coords {
			st.Add(c.Stats())
		}
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Kind: obs.KindCounter, Help: help, Value: float64(v)})
		}
		counter("ftx_commits_total", "Committed Atomic transactions.", st.Commits)
		counter("ftx_single_shard_commits_total", "The subset of commits whose keys all lived on one shard.", st.Fallbacks)
		counter("ftx_readonly_commits_total", "The subset of commits that spanned shards and wrote nothing.", st.ReadOnly)
		counter("ftx_aborts_total", "Commit attempts that failed read revalidation and were retried.", st.Aborts)
		counter("ftx_user_aborts_total", "Transactions abandoned because fn returned an error.", st.UserAborts)
	})
}

// registerCoord adds a freshly created transaction coordinator to the
// forest's aggregation list (Handle.Atomic calls it once per handle) and
// hands it the forest's flight recorder for abort-storm events.
func (f *Forest) registerCoord(c *ftx.Coordinator) {
	c.SetFlightRecorder(f.fr.Load())
	f.coordMu.Lock()
	f.coords = append(f.coords, c)
	f.coordMu.Unlock()
}
