//go:build linux && !race && (amd64 || arm64)

package arena

import (
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// chunkAlign is the boundary a chunk starts on: one transparent huge page.
const chunkAlign = 2 << 20

// pool holds the chunks of arenas that died. Chunks are never unmapped:
// stm.Tx keeps stale *Word pointers in its inline read and write sets past
// their length, and should an unmapped range later become Go heap, the
// collector would find those pointers aimed into it and abort the program.
// Reuse also spares each new small tree a fresh huge-page fault.
var pool struct {
	mu     sync.Mutex
	chunks []*chunk
}

// newChunk returns a zeroed chunk, the most recently pooled one if any. The
// clear is required: a dead arena's Words carry its STM domain's versions
// and lock bits in their meta, and a fresh domain would abort on them.
func newChunk() *chunk {
	pool.mu.Lock()
	n := len(pool.chunks)
	if n == 0 {
		pool.mu.Unlock()
		return mapChunk()
	}
	c := pool.chunks[n-1]
	pool.chunks = pool.chunks[:n-1]
	pool.mu.Unlock()
	clear(c[:])
	return c
}

// recycle hands a's chunks to the pool once a is unreachable.
func recycle(a *Arena) {
	runtime.AddCleanup(a, func(chunks *[]*chunk) {
		pool.mu.Lock()
		pool.chunks = append(pool.chunks, *chunks...)
		pool.mu.Unlock()
	}, a.chunks)
}

// pooledChunks reports how many chunks wait in the pool.
func pooledChunks() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.chunks)
}

// mapChunk maps a fresh chunk outside the Go heap: it over-maps by one
// chunk, unmaps the head and tail around the 2 MiB-aligned window inside,
// and advises the window for a transparent huge page.
func mapChunk() *chunk {
	const size = unsafe.Sizeof(chunk{})
	base, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, 2*size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON, ^uintptr(0), 0)
	if errno != 0 {
		panic("arena: mapping a chunk: " + errno.Error())
	}
	start := (base + chunkAlign - 1) &^ (chunkAlign - 1)
	head := start - base
	munmap(base, head)
	munmap(start+size, size-head)
	// Advice only, so its error is dropped: EINVAL means a kernel without
	// THP, and the chunk then works on small pages.
	_, _, _ = syscall.Syscall(syscall.SYS_MADVISE, start, size, syscall.MADV_HUGEPAGE)
	// The kernel's address is no Go pointer and the collector neither moves
	// nor frees this memory, so turning it into one is sound; unsafe.Add
	// spells the conversion in a form vet's unsafeptr check accepts.
	return (*chunk)(unsafe.Add(nil, start))
}

func munmap(addr, n uintptr) {
	if n == 0 {
		return
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, addr, n, 0); errno != 0 {
		panic("arena: trimming a chunk mapping: " + errno.Error())
	}
}
