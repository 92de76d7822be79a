//go:build linux && !race && (amd64 || arm64)

package arena

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// For the external recycling test (recycle_test.go).
var PooledChunks = pooledChunks

const ChunkNodes = chunkSize

// TestChunksAdvisedHuge checks that every chunk's mapping carries the
// MADV_HUGEPAGE advice (VmFlags "hg" in /proc/self/smaps). Whether the
// kernel actually backs it with huge pages is logged, not gated: under
// fragmentation it may fall back to 4 KiB pages.
func TestChunksAdvisedHuge(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", strings.TrimSpace(string(mode)), err)
	}
	a := New()
	for a.nChunks.Load() < 4 {
		a.Alloc(1, 1)
	}
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	maps := parseSmaps(t, string(smaps))
	const size = uintptr(unsafe.Sizeof(chunk{}))
	for ci := range 4 {
		lo := uintptr(unsafe.Pointer(a.chunkPtr[ci].Load()))
		next := lo // first chunk byte no mapping seen so far covers
		for _, m := range maps {
			if m.hi <= next || m.lo >= lo+size {
				continue
			}
			if m.lo > next {
				break
			}
			if !slices.Contains(m.flags, "hg") {
				t.Errorf("chunk %d at %#x: mapping %#x-%#x VmFlags %q lack hg", ci, lo, m.lo, m.hi, m.flags)
			}
			t.Logf("chunk %d at %#x: mapping %#x-%#x AnonHugePages %d kB", ci, lo, m.lo, m.hi, m.anonHugeKB)
			next = m.hi
		}
		if next < lo+size {
			t.Errorf("chunk %d at %#x: no mapping covers %#x", ci, lo, next)
		}
	}
	runtime.KeepAlive(a)
}

type smapsEntry struct {
	lo, hi     uintptr
	flags      []string
	anonHugeKB int
}

// parseSmaps reads the address range, VmFlags and AnonHugePages of every
// mapping, in address order.
func parseSmaps(t *testing.T, s string) []smapsEntry {
	var out []smapsEntry
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "VmFlags:" && len(out) > 0:
			out[len(out)-1].flags = f[1:]
		case f[0] == "AnonHugePages:" && len(f) > 1 && len(out) > 0:
			out[len(out)-1].anonHugeKB, _ = strconv.Atoi(f[1])
		case !strings.HasSuffix(f[0], ":"):
			lo, hi, ok := strings.Cut(f[0], "-")
			l, err1 := strconv.ParseUint(lo, 16, 64)
			h, err2 := strconv.ParseUint(hi, 16, 64)
			if !ok || err1 != nil || err2 != nil {
				t.Fatalf("smaps: bad mapping line %q", line)
			}
			out = append(out, smapsEntry{lo: uintptr(l), hi: uintptr(h)})
		}
	}
	return out
}
