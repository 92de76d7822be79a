//go:build linux && !race && (amd64 || arm64)

package arena_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/sftree"
	"repro/internal/stm"
)

const nodeSize = unsafe.Sizeof(arena.Node{})

// chunkMem is chunk ci of a as bytes.
func chunkMem(a *arena.Arena, ci uint64) []byte {
	first := ci * arena.ChunkNodes
	r := max(first, 1) // slot 0 is burned and Get(Nil) panics
	p := unsafe.Add(unsafe.Pointer(a.Get(r)), -int((r-first)*uint64(nodeSize)))
	return unsafe.Slice((*byte)(p), arena.ChunkNodes*nodeSize)
}

// dirtyTree fills a two-chunk tree on its own STM domain, runs that domain's
// clock past 50 000 commits, and drops both. It returns the addresses of the
// tree's chunks: every Word in them carries a version no fresh domain reaches
// within this test.
func dirtyTree(t *testing.T) map[uintptr]bool {
	s := stm.New()
	tr := sftree.New(s, sftree.WithVariant(sftree.Optimized))
	th := s.NewThread()
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(arena.ChunkNodes) { // with the root: two chunks
		tr.Insert(th, uint64(k), 0)
	}
	for s.Now() <= 50_000 {
		k := uint64(rng.Intn(arena.ChunkNodes))
		tr.Delete(th, k)
		tr.Insert(th, k, k)
	}
	if c := tr.Arena().Cap() + 1; c != 2*arena.ChunkNodes {
		t.Fatalf("tree holds %d nodes of chunks, want two chunks", c)
	}
	return map[uintptr]bool{
		uintptr(unsafe.Pointer(unsafe.SliceData(chunkMem(tr.Arena(), 0)))): true,
		uintptr(unsafe.Pointer(unsafe.SliceData(chunkMem(tr.Arena(), 1)))): true,
	}
}

// TestChunkRecycling drives the chunk pool end to end: a dead tree's chunks
// reach the pool once the collector has run, come back cleared, and carry a
// tree on a fresh STM domain. Without the clear the old domain's versions
// stay in the Words' meta and every transaction of the new domain aborts.
func TestChunkRecycling(t *testing.T) {
	dead := dirtyTree(t)

	// The pool is LIFO and the dead tree's chunks go in together: draw,
	// collecting whenever the pool is empty, until the first of them comes
	// back. Every drawn chunk must be clear.
	var held []*arena.Arena
	for found, gcs := false, 0; !found; {
		if arena.PooledChunks() == 0 {
			if gcs++; gcs > 500 {
				t.Fatal("the dead tree's chunks did not reach the pool within 500 collections")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
			continue
		}
		a := arena.New()
		held = append(held, a)
		mem := chunkMem(a, 0)
		for i, b := range mem {
			if b != 0 {
				t.Fatalf("recycled chunk byte %d (node %d) = %#x before any Alloc, want 0", i, uintptr(i)/nodeSize, b)
			}
		}
		found = dead[uintptr(unsafe.Pointer(unsafe.SliceData(mem)))]
	}

	// A fresh domain's tree on the other chunk.
	s := stm.New()
	tr := sftree.New(s, sftree.WithVariant(sftree.Optimized))
	if !dead[uintptr(unsafe.Pointer(unsafe.SliceData(chunkMem(tr.Arena(), 0))))] {
		t.Fatal("the new tree's chunk is not the dead tree's")
	}
	done := make(chan error, 1)
	go func() {
		th := s.NewThread()
		rng := rand.New(rand.NewSource(1))
		for range 10_000 {
			k := uint64(rng.Intn(4096))
			switch rng.Intn(3) {
			case 0:
				tr.Insert(th, k, k)
			case 1:
				tr.Delete(th, k)
			default:
				tr.Contains(th, k)
			}
		}
		tr.Quiesce(100)
		done <- tr.CheckBalanced(1)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("10 000 ops on recycled chunks did not finish within 5 s")
	}
	runtime.KeepAlive(held)
}
