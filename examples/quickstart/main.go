// Quickstart: the speculation-friendly tree as a concurrent ordered map.
//
// Run with:
//
//	go run ./examples/quickstart
//
// It walks through the public API: creating a tree, per-goroutine handles,
// the basic map operations, composed atomic transactions (the paper §5.4
// reusability), and the maintenance statistics that expose the decoupled
// restructuring at work.
package main

import (
	"fmt"
	"sync"

	"repro"
)

func main() {
	// A speculation-friendly tree with its maintenance worker running.
	tree := repro.NewTree(repro.SpeculationFriendlyOptimized)
	defer tree.Close()

	// Handles are per-goroutine accessors.
	h := tree.NewHandle()
	for k := uint64(1); k <= 10; k++ {
		h.Insert(k, k*100)
	}
	if v, ok := h.Get(7); ok {
		fmt.Printf("key 7 -> %d\n", v)
	}
	h.Delete(3)
	fmt.Printf("after delete(3): len=%d keys=%v\n", h.Len(), h.Keys())

	// Operations compose into one atomic transaction: a conditional
	// "move" exactly like the paper's composed operation.
	h.Update(func(op *repro.Op) {
		if v, ok := op.Get(5); ok && !op.Contains(50) {
			op.Delete(5)
			op.Insert(50, v)
		}
	})
	fmt.Printf("after move 5->50: keys=%v\n", h.Keys())

	// Or simply use the built-in Move.
	h.Move(50, 5)
	fmt.Printf("after move 50->5: keys=%v\n", h.Keys())

	// Concurrency: one handle per goroutine, no locks anywhere in sight.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		hg := tree.NewHandle()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(1000 * (g + 1))
			for i := uint64(0); i < 500; i++ {
				hg.Insert(base+i, i)
			}
			for i := uint64(0); i < 500; i += 2 {
				hg.Delete(base + i)
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("after concurrent phase: len=%d\n", h.Len())

	// The decoupling at work: deletions above were logical; the background
	// maintenance thread unlinks, rebalances and garbage-collects.
	tree.Maintain(1 << 20)
	ms := tree.MaintenanceStats()
	fmt.Printf("maintenance: %d rotations, %d removals, %d nodes reclaimed over %d passes\n",
		ms.Rotations, ms.Removals, ms.Freed, ms.Passes)
	st := tree.Stats()
	fmt.Printf("stm: %d commits, %d aborts (%.2f%% abort rate)\n",
		st.Commits, st.Aborts, 100*st.AbortRate())
}
