package obs

import (
	"sort"
	"sync"
	"time"
)

// Sample is one exposed metric series at snapshot time. Label is the
// rendered Prometheus label pairs without braces (e.g. `shard="3"` or
// `shard="0",cause="validation"`); empty for an unlabeled series. Hist is
// set only for KindHistogram samples (Value then carries the sum).
type Sample struct {
	Name  string        `json:"name"`
	Label string        `json:"label,omitempty"`
	Kind  Kind          `json:"-"`
	Help  string        `json:"-"`
	Value float64       `json:"value"`
	Hist  *HistSnapshot `json:"hist,omitempty"`
}

// Collector is a callback that emits samples at snapshot time. Layers
// whose statistics live outside the registry's owned primitives (per-thread
// STM mirrors, the durable log's mutex-guarded counters) register one and
// do their aggregation on the scrape path, keeping their hot paths free.
type Collector func(emit func(Sample))

type ownedMetric struct {
	name, help string
	kind       Kind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry holds the owned metric primitives and the registered
// collectors, and produces consistent snapshots of all of them. A nil
// *Registry is inert: the accessor methods on a nil registry return nil,
// so call sites can hold an optional registry without nil checks at every
// increment (callers still nil-check the returned primitive once and cache
// it).
type Registry struct {
	mu         sync.Mutex
	owned      []*ownedMetric
	byKey      map[string]*ownedMetric
	collectors []Collector
	flight     *FlightRecorder
	tracer     *Tracer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*ownedMetric)}
}

func (r *Registry) lookup(name string, kind Kind) *ownedMetric {
	if m, ok := r.byKey[name]; ok && m.kind == kind {
		return m
	}
	return nil
}

func (r *Registry) add(m *ownedMetric) {
	r.owned = append(r.owned, m)
	r.byKey[m.name] = m
}

// Counter returns the counter registered under name, creating it on first
// use. Repeated calls with the same name return the same counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindCounter); m != nil {
		return m.c
	}
	m := &ownedMetric{name: name, help: help, kind: KindCounter, c: new(Counter)}
	r.add(m)
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindGauge); m != nil {
		return m.g
	}
	m := &ownedMetric{name: name, help: help, kind: KindGauge, g: new(Gauge)}
	r.add(m)
	return m.g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, KindHistogram); m != nil {
		return m.h
	}
	m := &ownedMetric{name: name, help: help, kind: KindHistogram, h: new(Histogram)}
	r.add(m)
	return m.h
}

// RegisterCollector adds a snapshot-time sample source.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// SetFlight attaches the flight recorder served by the HTTP endpoint.
func (r *Registry) SetFlight(f *FlightRecorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flight = f
}

// Flight returns the attached flight recorder, or nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight
}

// SetTracer attaches the span tracer served by the HTTP endpoint's /trace.
func (r *Registry) SetTracer(t *Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// Tracer returns the attached tracer, or nil.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Snapshot reads every owned metric and invokes every collector, returning
// the samples sorted by (Name, Label). Owned counters and histograms are
// individually consistent (atomic loads); cross-metric consistency is
// best-effort, as for any live system.
type Snapshot struct {
	TakenAt time.Time `json:"taken_at"`
	Samples []Sample  `json:"samples"`
}

// Snapshot collects all samples. Safe to call concurrently with writers.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{TakenAt: time.Now()}
	}
	r.mu.Lock()
	owned := make([]*ownedMetric, len(r.owned))
	copy(owned, r.owned)
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	snap := Snapshot{TakenAt: time.Now()}
	for _, m := range owned {
		switch m.kind {
		case KindCounter:
			snap.Samples = append(snap.Samples, Sample{Name: m.name, Kind: KindCounter, Help: m.help, Value: float64(m.c.Load())})
		case KindGauge:
			snap.Samples = append(snap.Samples, Sample{Name: m.name, Kind: KindGauge, Help: m.help, Value: float64(m.g.Load())})
		case KindHistogram:
			h := m.h.Snapshot()
			snap.Samples = append(snap.Samples, Sample{Name: m.name, Kind: KindHistogram, Help: m.help, Value: float64(h.Sum), Hist: &h})
		}
	}
	for _, c := range collectors {
		c(func(s Sample) { snap.Samples = append(snap.Samples, s) })
	}
	sort.SliceStable(snap.Samples, func(i, j int) bool {
		a, b := snap.Samples[i], snap.Samples[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Label < b.Label
	})
	return snap
}

// Get returns the value of the sample with the given name and label.
func (s Snapshot) Get(name, label string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name && sm.Label == label {
			return sm.Value, true
		}
	}
	return 0, false
}

// Diff returns s - prev: counter and histogram samples are subtracted
// (series missing from prev pass through unchanged), gauges keep their
// current value. Use it to turn cumulative snapshots into per-interval
// rates.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	type key struct{ name, label string }
	old := make(map[key]Sample, len(prev.Samples))
	for _, sm := range prev.Samples {
		old[key{sm.Name, sm.Label}] = sm
	}
	out := Snapshot{TakenAt: s.TakenAt, Samples: make([]Sample, 0, len(s.Samples))}
	for _, sm := range s.Samples {
		p, ok := old[key{sm.Name, sm.Label}]
		if ok && sm.Kind != KindGauge {
			sm.Value -= p.Value
			if sm.Hist != nil && p.Hist != nil {
				d := sm.Hist.Sub(*p.Hist)
				sm.Hist = &d
			}
		}
		out.Samples = append(out.Samples, sm)
	}
	return out
}
