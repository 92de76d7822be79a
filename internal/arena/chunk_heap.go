//go:build !linux || race || !(amd64 || arm64)

package arena

// chunkAlign is the boundary a chunk starts on: a 2 MiB heap object gets a
// span of its own, so at least a cache line. Race builds land here too, as
// the race detector does not watch memory outside the Go heap.
const chunkAlign = 64

func newChunk() *chunk { return new(chunk) }

// recycle is a no-op: the collector frees heap chunks with their arena.
func recycle(*Arena) {}
