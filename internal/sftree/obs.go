package sftree

import (
	"unsafe"

	"repro/internal/arena"
	"repro/internal/obs"
)

// RegisterObs registers the tree's structural-activity counters, its
// height-estimate gauge and its node-memory gauge with an observability registry under the given
// rendered label pairs (e.g. `shard="3"`; empty for an unlabeled tree). The
// values are per-field atomics, so collection is a handful of loads on the scrape path — the
// tree and its maintenance driver are never paused.
func (t *Tree) RegisterObs(r *obs.Registry, labels string) {
	r.RegisterCollector(func(emit func(obs.Sample)) {
		st := t.Stats()
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Label: labels, Kind: obs.KindCounter, Help: help, Value: float64(v)})
		}
		counter("sftree_rotations_total", "Successful structural rotations.", st.Rotations)
		counter("sftree_removals_total", "Successful physical removals.", st.Removals)
		counter("sftree_failed_rotations_total", "Rotation transactions that aborted against application traffic.", st.FailedRot)
		counter("sftree_failed_removals_total", "Removal transactions that aborted against application traffic.", st.FailedRemove)
		counter("sftree_maint_passes_total", "Completed maintenance sweeps.", st.Passes)
		counter("sftree_freed_total", "Nodes reclaimed by the epoch collector.", st.Freed)
		emit(obs.Sample{Name: "sftree_height_estimate", Label: labels, Kind: obs.KindGauge,
			Help: "Root height estimate as of the last completed maintenance pass.", Value: float64(t.heightEst.Load())})
		// Node chunks live outside the Go heap on Linux, so no runtime
		// memory statistic counts them: this gauge is where they show.
		emit(obs.Sample{Name: "sftree_node_bytes", Label: labels, Kind: obs.KindGauge,
			Help: "Bytes of node chunks held by the tree's arena.", Value: float64((t.ar.Cap() + 1) * uint64(unsafe.Sizeof(arena.Node{})))})
	})
}
