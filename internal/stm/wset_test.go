package stm

import (
	"runtime"
	"testing"
	"unsafe"
)

// newTestTx returns a registered thread's descriptor, reset for an attempt.
func newTestTx(t *testing.T, mode Mode) (*Thread, *Tx) {
	t.Helper()
	th := New().NewThread()
	tx := &th.tx
	tx.begin(mode)
	return th, tx
}

func TestFindWriteHitAndMiss(t *testing.T) {
	_, tx := newTestTx(t, CTL)
	words := make([]Word, 4)
	tx.Write(&words[0], 10)
	tx.Write(&words[2], 30)

	if e := tx.findWrite(&words[0]); e == nil || e.val != 10 {
		t.Fatalf("findWrite(hit) = %+v, want val 10", e)
	}
	if e := tx.findWrite(&words[2]); e == nil || e.val != 30 {
		t.Fatalf("findWrite(hit) = %+v, want val 30", e)
	}
	if e := tx.findWrite(&words[1]); e != nil {
		t.Fatalf("findWrite(miss) = %+v, want nil", e)
	}
	// Read-after-write visibility goes through the same lookup.
	if v := tx.Read(&words[0]); v != 10 {
		t.Fatalf("Read-after-write = %d, want 10", v)
	}
	// Overwrite folds into the existing entry instead of appending.
	tx.Write(&words[0], 11)
	if n := len(tx.writes); n != 2 {
		t.Fatalf("write set has %d entries after overwrite, want 2", n)
	}
	if v := tx.Read(&words[0]); v != 11 {
		t.Fatalf("Read after overwrite = %d, want 11", v)
	}
}

func TestWriteSetIndexEngagesAndGrows(t *testing.T) {
	_, tx := newTestTx(t, CTL)
	const n = 200 // far past wsScanMax, forcing several growth rebuilds
	words := make([]Word, n)
	for i := range words {
		tx.Write(&words[i], uint64(i+1))
		if len(tx.writes) <= wsScanMax && tx.widxN != 0 {
			t.Fatalf("index engaged at %d entries, want only above %d", len(tx.writes), wsScanMax)
		}
	}
	if tx.widxN == 0 {
		t.Fatal("index not engaged above wsScanMax entries")
	}
	if got, min := len(tx.widx), 4*n; got < min {
		t.Fatalf("index size %d under the 4x sizing floor %d", got, min)
	}
	for i := range words {
		e := tx.findWrite(&words[i])
		if e == nil || e.val != uint64(i+1) {
			t.Fatalf("indexed lookup of word %d = %+v, want val %d", i, e, i+1)
		}
	}
	var other Word
	if e := tx.findWrite(&other); e != nil {
		t.Fatalf("indexed lookup of unwritten word = %+v, want nil", e)
	}
}

func TestWriteSetIndexResetAcrossAttempts(t *testing.T) {
	_, tx := newTestTx(t, CTL)
	first := make([]Word, 2*wsScanMax)
	for i := range first {
		tx.Write(&first[i], 1)
	}
	if tx.widxN == 0 {
		t.Fatal("index not engaged in the first attempt")
	}

	// A fresh attempt must forget the previous write set entirely: the
	// filter, the index, and the entries themselves.
	tx.begin(CTL)
	if tx.widxN != 0 || tx.wfilter != 0 || len(tx.writes) != 0 {
		t.Fatalf("begin left state behind: widxN=%d wfilter=%#x writes=%d",
			tx.widxN, tx.wfilter, len(tx.writes))
	}
	for i := range first {
		if e := tx.findWrite(&first[i]); e != nil {
			t.Fatalf("stale entry for first-attempt word %d: %+v", i, e)
		}
	}

	// Re-engaging the index in the new attempt must not resurrect stale
	// slots (the rebuild reuses the previous attempt's table capacity).
	second := make([]Word, 2*wsScanMax)
	for i := range second {
		tx.Write(&second[i], uint64(100+i))
	}
	for i := range first {
		if e := tx.findWrite(&first[i]); e != nil {
			t.Fatalf("stale first-attempt word %d visible through rebuilt index: %+v", i, e)
		}
	}
	for i := range second {
		if e := tx.findWrite(&second[i]); e == nil || e.val != uint64(100+i) {
			t.Fatalf("second-attempt word %d = %+v, want val %d", i, e, 100+i)
		}
	}
}

func TestInlineSetOverflow(t *testing.T) {
	s := New()
	th := s.NewThread()
	const n = 3 * inlineReads // overflows both inline arrays
	words := make([]Word, n)

	th.Atomic(func(tx *Tx) {
		for i := range words {
			if v := tx.Read(&words[i]); v != 0 {
				t.Errorf("fresh word %d reads %d, want 0", i, v)
			}
			tx.Write(&words[i], uint64(i+1))
		}
		// Read-after-write across the overflowed set.
		for i := range words {
			if v := tx.Read(&words[i]); v != uint64(i+1) {
				t.Errorf("buffered word %d reads %d, want %d", i, v, i+1)
			}
		}
	})
	for i := range words {
		if v := words[i].Plain(); v != uint64(i+1) {
			t.Fatalf("committed word %d = %d, want %d", i, v, i+1)
		}
	}

	// The overflowed descriptor keeps working for later small operations.
	th.Atomic(func(tx *Tx) {
		tx.Write(&words[0], 999)
	})
	if v := words[0].Plain(); v != 999 {
		t.Fatalf("post-overflow commit = %d, want 999", v)
	}
}

func TestSpinExhaustedOnLockedWord(t *testing.T) {
	th, tx := newTestTx(t, CTL)
	var w Word
	w.meta.Store(packLock(99)) // a lock no live thread will ever release

	func() {
		defer func() {
			if r := recover(); r != abortSignal {
				t.Fatalf("recover() = %v, want the abort signal", r)
			}
		}()
		tx.Read(&w)
		t.Fatal("Read of a permanently locked word returned")
	}()

	// sampleContended burns one budget, yields, burns a second, then aborts.
	if got := th.stats.SpinExhausted; got != 2 {
		t.Fatalf("SpinExhausted = %d, want 2", got)
	}
	if th.stats.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", th.stats.Aborts)
	}

	// Stats aggregation carries the counter.
	var agg Stats
	agg.Add(th.stats)
	agg.Add(Stats{SpinExhausted: 3})
	if agg.SpinExhausted != 5 {
		t.Fatalf("aggregated SpinExhausted = %d, want 5", agg.SpinExhausted)
	}
}

func TestUReadWaitsOutLock(t *testing.T) {
	th, tx := newTestTx(t, CTL)
	var w Word
	w.SetPlain(7)
	w.meta.Store(packLock(99))
	// Release the lock only once the reader has observably exhausted a spin
	// budget (the live mirror is the race-free view of the counter): a
	// fixed delay fails whenever the reader is descheduled past it.
	go func() {
		for th.liveStats().SpinExhausted == 0 {
			runtime.Gosched()
		}
		w.meta.Store(packVersion(0))
	}()
	if v := tx.URead(&w); v != 7 {
		t.Fatalf("URead = %d, want 7", v)
	}
	// The wait must have consumed at least one spin budget (and charged it)
	// rather than returning a torn or locked-era sample.
	if th.stats.SpinExhausted == 0 {
		t.Fatal("URead waited out a lock without charging SpinExhausted")
	}
}

// TestThreadLayout pins the thread's transaction descriptor to a cache-line
// boundary on 64-bit builds: its leading scalar fields are read on every
// access, and one extra word in the fields before it once put it 8 B off a
// line and cost paper-u20 about 5 % throughput on a 2-vCPU host. Add
// fields behind tx.
func TestThreadLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is sized for 64-bit pointers")
	}
	var th Thread
	if off := unsafe.Offsetof(th.tx); off%64 != 0 {
		t.Fatalf("Thread.tx at offset %d, want a multiple of 64", off)
	}
}
