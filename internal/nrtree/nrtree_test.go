package nrtree

import (
	"testing"

	"repro/internal/stm"
)

func TestNoRestructuring(t *testing.T) {
	s := stm.New()
	tr := New(s)
	th := s.NewThread()
	const n = 128
	for k := uint64(0); k < n; k++ {
		tr.Insert(th, k, k)
	}
	// Sorted insertion with no rebalancing must leave a degenerate list.
	if h := tr.Height(); h != n {
		t.Fatalf("height = %d, want %d (no rotations may ever run)", h, n)
	}
	if got := tr.RunMaintenancePass(); got != 0 {
		t.Fatalf("maintenance pass did work: %d", got)
	}
	if !tr.Quiesce(1) {
		t.Fatal("Quiesce must trivially succeed")
	}
	if h := tr.Height(); h != n {
		t.Fatalf("height changed to %d after no-op maintenance", h)
	}
	if st := tr.Stats(); st.Rotations != 0 || st.Removals != 0 {
		t.Fatalf("structural work recorded on NRtree: %+v", st)
	}
}

func TestLogicalDeleteOnlyNeverUnlinks(t *testing.T) {
	s := stm.New()
	tr := New(s)
	th := s.NewThread()
	for k := uint64(0); k < 64; k++ {
		tr.Insert(th, k, k)
	}
	for k := uint64(0); k < 64; k++ {
		if !tr.Delete(th, k) {
			t.Fatalf("delete(%d) failed", k)
		}
	}
	if got := tr.Size(th); got != 0 {
		t.Fatalf("abstract size = %d, want 0", got)
	}
	if got := tr.PhysicalSize(); got != 64 {
		t.Fatalf("physical size = %d, want 64 (nodes never removed)", got)
	}
	// Resurrection still works through the shared logical-deletion path.
	if !tr.Insert(th, 10, 100) {
		t.Fatal("resurrection failed")
	}
	if v, ok := tr.Get(th, 10); !ok || v != 100 {
		t.Fatalf("get after resurrection = (%d,%v)", v, ok)
	}
	if got := tr.PhysicalSize(); got != 64 {
		t.Fatalf("resurrection allocated: physical size %d", got)
	}
}

func TestInheritedOperations(t *testing.T) {
	s := stm.New()
	tr := New(s)
	th := s.NewThread()
	tr.Insert(th, 1, 10)
	tr.Insert(th, 2, 20)
	if !tr.Move(th, 1, 3) {
		t.Fatal("move failed")
	}
	if tr.Contains(th, 1) || !tr.Contains(th, 3) {
		t.Fatal("move semantics broken")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
