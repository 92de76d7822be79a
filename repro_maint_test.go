package repro

import (
	"testing"
	"time"
)

// TestMaintWorkersOption: the shared pool honours WithMaintWorkers and
// reports its sweeps through MaintPoolStats; their removals surface in
// MaintenanceStats.
func TestMaintWorkersOption(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized, WithShards(8), WithMaintWorkers(2))
	defer tr.Close()
	if got := tr.MaintPoolStats().Workers; got != 2 {
		t.Fatalf("Workers = %d, want 2", got)
	}
	h := tr.NewHandle()
	for k := uint64(0); k < 2048; k++ {
		h.Insert(k, k)
	}
	for k := uint64(0); k < 2048; k += 2 {
		h.Delete(k)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.MaintenanceStats().Removals == 0 || tr.MaintPoolStats().Sweeps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool swept nothing: %+v, %+v", tr.MaintenanceStats(), tr.MaintPoolStats())
		}
		time.Sleep(time.Millisecond)
	}
	tr.Maintain(1 << 20)
	for k := uint64(1); k < 2048; k += 2 {
		if v, ok := h.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = (%d, %v) after maintenance, want (%d, true)", k, v, ok, k)
		}
	}
}

// TestMaintPoolStatsSingleDomain: the unsharded tree's maintenance pool
// has one worker, and the configured size survives Close.
func TestMaintPoolStatsSingleDomain(t *testing.T) {
	tr := NewTree(SpeculationFriendly)
	h := tr.NewHandle()
	for k := uint64(0); k < 512; k++ {
		h.Insert(k, k)
	}
	if got := tr.MaintPoolStats().Workers; got != 1 {
		t.Fatalf("Workers = %d, want 1", got)
	}
	tr.Close()
	// Workers is the configured scheduler size and survives Close.
	if got := tr.MaintPoolStats().Workers; got != 1 {
		t.Fatalf("Workers = %d after Close, want 1 (configured size survives)", got)
	}
	// A tree built without maintenance reports zero workers.
	tr3 := NewTree(SpeculationFriendly, WithoutMaintenance())
	defer tr3.Close()
	if got := tr3.MaintPoolStats().Workers; got != 0 {
		t.Fatalf("Workers = %d with WithoutMaintenance, want 0", got)
	}
	// Kinds without maintenance report an all-zero pool.
	tr2 := NewTree(RedBlack)
	defer tr2.Close()
	if ps := tr2.MaintPoolStats(); ps.Workers != 0 {
		t.Fatalf("red-black tree reports maintenance workers: %+v", ps)
	}
}
