package arena

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/stm"
)

func TestAllocInitialState(t *testing.T) {
	a := New()
	r := a.Alloc(42, 7)
	if r == Nil {
		t.Fatal("Alloc returned Nil")
	}
	n := a.Get(r)
	if n.Key.Plain() != 42 || n.Val.Plain() != 7 {
		t.Fatalf("key/val = %d/%d, want 42/7", n.Key.Plain(), n.Val.Plain())
	}
	if n.L.Plain() != Nil || n.R.Plain() != Nil || n.Parent().Plain() != Nil {
		t.Fatal("children/parent not Nil")
	}
	if n.Del.Plain() != 0 || n.Rem.Plain() != RemFalse || n.Balance().Plain() != 0 {
		t.Fatal("flags/color/height not clear")
	}
	if n.LeftH.Load() != 0 || n.RightH.Load() != 0 || n.LocalH.Load() != 1 {
		t.Fatal("paper initial heights violated (left-h=right-h=0, local-h=1)")
	}
}

// TestNodeChild pins the child-word select every tree's search hop uses:
// Child(false) is the L word and Child(true) the R word of the same node,
// in a mapped chunk and, under GOARCH=386 or -race, in a heap chunk.
func TestNodeChild(t *testing.T) {
	a := New()
	for _, r := range []Ref{a.Alloc(1, 0), a.Alloc(2, 0)} {
		n := a.Get(r)
		if got := n.Child(false); got != &n.L {
			t.Errorf("node %d: Child(false) = %p, want &L = %p", r, got, &n.L)
		}
		if got := n.Child(true); got != &n.R {
			t.Errorf("node %d: Child(true) = %p, want &R = %p", r, got, &n.R)
		}
	}
}

// TestNodeLayout pins the two-cache-line contract of the Node doc comment:
// 128 bytes, the traversal words on the first line, the found-node words on
// the second, and 2 MiB chunks that start on chunkAlign (a huge-page boundary
// where chunks are mapped, a line boundary on the heap) so the node lines
// coincide with hardware lines.
func TestNodeLayout(t *testing.T) {
	var n Node
	if s := unsafe.Sizeof(n); s != 128 {
		t.Fatalf("Sizeof(Node) = %d, want 128 (two cache lines)", s)
	}
	for _, f := range []struct {
		name   string
		off    uintptr
		lo, hi uintptr
	}{
		{"Key", unsafe.Offsetof(n.Key), 0, 64},
		{"L", unsafe.Offsetof(n.L), 0, 64},
		{"R", unsafe.Offsetof(n.R), 0, 64},
		{"Rem", unsafe.Offsetof(n.Rem), 0, 64},
		{"Del", unsafe.Offsetof(n.Del), 64, 128},
		{"Val", unsafe.Offsetof(n.Val), 64, 128},
	} {
		if f.off < f.lo || f.off+unsafe.Sizeof(stm.Word{}) > f.hi {
			t.Errorf("%s at bytes [%d,%d), want inside [%d,%d)",
				f.name, f.off, f.off+unsafe.Sizeof(stm.Word{}), f.lo, f.hi)
		}
	}
	if n.Parent() != &n.Rem || n.Balance() != &n.Del {
		t.Error("Parent/Balance must alias the Rem/Del slots")
	}
	if s := unsafe.Sizeof(chunk{}); s != 2<<20 {
		t.Fatalf("Sizeof(chunk) = %d, want 2 MiB (one huge page)", s)
	}
	a := New()
	for i := 0; i < chunkSize; i++ { // slot 0 is burned: this reaches chunk 1
		a.Alloc(uint64(i), 0)
	}
	for ci := range 2 {
		if p := uintptr(unsafe.Pointer(&a.chunkPtr[ci].Load()[0])); p%chunkAlign != 0 {
			t.Errorf("chunk %d starts at %#x, not %d-byte aligned", ci, p, chunkAlign)
		}
	}
}

// TestNodeHasNoPointers walks Node's type and fails on any kind that holds a
// Go pointer. Chunks may live outside the Go heap, where the collector never
// looks: a pointer stored there would not keep its target alive.
func TestNodeHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: the collector cannot see it in a mapped chunk", path, typ.Kind())
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Node", reflect.TypeFor[Node]())
}

func TestRefZeroIsNil(t *testing.T) {
	a := New()
	r := a.Alloc(1, 1)
	if r == 0 {
		t.Fatal("first allocation must not be ref 0 (reserved for ⊥)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get(Nil) must panic")
		}
	}()
	a.Get(Nil)
}

func TestFreeNilPanics(t *testing.T) {
	a := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Free(Nil) must panic")
		}
	}()
	a.Free(Nil)
}

func TestGetOutOfRangePanics(t *testing.T) {
	a := New()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Get must panic")
		}
	}()
	a.Get(1 << 40)
}

func TestFreeReuse(t *testing.T) {
	a := New()
	r1 := a.Alloc(1, 1)
	a.Free(r1)
	r2 := a.Alloc(2, 2)
	if r2 != r1 {
		t.Fatalf("expected LIFO reuse of freed slot: got %d, want %d", r2, r1)
	}
	n := a.Get(r2)
	if n.Key.Plain() != 2 || n.Val.Plain() != 2 || n.Del.Plain() != 0 {
		t.Fatal("recycled node not reinitialized")
	}
	if a.Reuses() != 1 {
		t.Fatalf("Reuses=%d, want 1", a.Reuses())
	}
}

func TestGrowthAcrossChunks(t *testing.T) {
	a := New()
	const n = chunkSize*2 + 10
	refs := make([]Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, a.Alloc(uint64(i), uint64(i)))
	}
	seen := make(map[Ref]bool, n)
	for i, r := range refs {
		if seen[r] {
			t.Fatalf("duplicate ref %d", r)
		}
		seen[r] = true
		if got := a.Get(r).Key.Plain(); got != uint64(i) {
			t.Fatalf("node %d key=%d after growth", i, got)
		}
	}
	if a.Live() != n {
		t.Fatalf("Live=%d, want %d", a.Live(), n)
	}
	if a.Cap() < n {
		t.Fatalf("Cap=%d < %d", a.Cap(), n)
	}
}

func TestStableAddressesAcrossGrowth(t *testing.T) {
	a := New()
	r := a.Alloc(9, 9)
	p := a.Get(r)
	for i := 0; i < chunkSize+5; i++ {
		a.Alloc(uint64(i), 0)
	}
	if a.Get(r) != p {
		t.Fatal("node address changed after arena growth")
	}
}

func TestConcurrentAllocDistinct(t *testing.T) {
	a := New()
	const g, per = 8, 2000
	var wg sync.WaitGroup
	out := make([][]Ref, g)
	for i := 0; i < g; i++ {
		out[i] = make([]Ref, 0, per)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				out[i] = append(out[i], a.Alloc(uint64(i), uint64(j)))
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[Ref]bool, g*per)
	for _, refs := range out {
		for _, r := range refs {
			if seen[r] {
				t.Fatalf("ref %d handed to two goroutines", r)
			}
			seen[r] = true
		}
	}
}

func TestAllocFreeChurnProperty(t *testing.T) {
	// Property: after any interleaved sequence of allocs and frees, Live()
	// equals allocs-frees and all live nodes keep their payloads.
	f := func(ops []bool) bool {
		a := New()
		live := map[Ref]uint64{}
		var order []Ref
		k := uint64(0)
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				k++
				r := a.Alloc(k, k*3)
				live[r] = k
				order = append(order, r)
			} else {
				r := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, r)
				a.Free(r)
			}
		}
		if a.Live() != uint64(len(live)) {
			return false
		}
		for r, key := range live {
			n := a.Get(r)
			if n.Key.Plain() != key || n.Val.Plain() != key*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemovedHelper(t *testing.T) {
	if Removed(RemFalse) {
		t.Fatal("RemFalse must not count as removed")
	}
	if !Removed(RemTrue) || !Removed(RemTrueByLeftRot) {
		t.Fatal("RemTrue / RemTrueByLeftRot must count as removed")
	}
}

func TestReinitResetsEverything(t *testing.T) {
	a := New()
	r := a.Alloc(1, 1)
	n := a.Get(r)
	n.L.SetPlain(7)
	n.R.SetPlain(8)
	n.Del.SetPlain(1)
	n.Rem.SetPlain(RemTrue)
	n.LeftH.Store(4)
	a.reinit(r, 2, 20)
	if n.Key.Plain() != 2 || n.Val.Plain() != 20 {
		t.Fatal("payload not reset")
	}
	if n.L.Plain() != Nil || n.R.Plain() != Nil {
		t.Fatal("links not reset")
	}
	if n.Del.Plain() != 0 || n.Rem.Plain() != RemFalse {
		t.Fatal("flags not reset")
	}
	if n.LeftH.Load() != 0 || n.LocalH.Load() != 1 {
		t.Fatal("heights not reset")
	}
	// The RB/AVL view of the same slots: the reset leaves no stale parent
	// or color/height behind.
	n.Parent().SetPlain(9)
	n.Balance().SetPlain(3)
	a.reinit(r, 2, 20)
	if n.Parent().Plain() != Nil || n.Balance().Plain() != 0 {
		t.Fatal("parent/balance not reset")
	}
}

func TestCountersExposed(t *testing.T) {
	a := New()
	r := a.Alloc(1, 1)
	if a.Allocs() != 1 || a.Live() != 1 {
		t.Fatalf("allocs=%d live=%d", a.Allocs(), a.Live())
	}
	a.Free(r)
	if a.Frees() != 1 || a.Live() != 0 {
		t.Fatalf("frees=%d live=%d", a.Frees(), a.Live())
	}
}
