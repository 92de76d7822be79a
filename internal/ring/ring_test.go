package ring

import (
	"sync"
	"testing"
)

func TestFIFOAndCapacity(t *testing.T) {
	q := New[int](5) // rounds up to 8
	if q.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", q.Cap())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty ring succeeded")
	}
	for i := 0; i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d failed below capacity", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push succeeded on a full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %t), want (%d, true)", v, ok, i)
		}
	}
	if q.Size() != 0 {
		t.Fatalf("Size = %d after full drain, want 0", q.Size())
	}
}

func TestWrapAround(t *testing.T) {
	q := New[uint64](4)
	var want uint64
	for lap := 0; lap < 10; lap++ {
		for i := 0; i < 3; i++ {
			if !q.Push(uint64(lap*3 + i)) {
				t.Fatalf("lap %d push %d failed", lap, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("lap %d: Pop = (%d, %t), want (%d, true)", lap, v, ok, want)
			}
			want++
		}
	}
}

// TestMPMC hammers the ring from many producers and many consumers,
// checking nothing is duplicated, invented or lost.
func TestMPMC(t *testing.T) {
	q := New[uint64](64)
	const producers = 4
	const consumers = 2
	const perProducer = 20000
	var wg sync.WaitGroup
	var pushed [producers]uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if q.Push(uint64(p*perProducer + i)) {
					pushed[p]++
				}
			}
		}(p)
	}
	doneProducing := make(chan struct{})
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var popped uint64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Pop()
				if ok {
					mu.Lock()
					if seen[v] {
						t.Errorf("duplicate element %d", v)
					}
					seen[v] = true
					popped++
					mu.Unlock()
					continue
				}
				select {
				case <-doneProducing:
					if _, ok := q.Pop(); !ok {
						return
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(doneProducing)
	cwg.Wait()
	// Final drain from one goroutine for anything the racing exits left.
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Errorf("duplicate element %d", v)
		}
		seen[v] = true
		popped++
	}
	var total uint64
	for p := 0; p < producers; p++ {
		total += pushed[p]
	}
	if popped != total {
		t.Fatalf("popped %d != pushed %d", popped, total)
	}
}
