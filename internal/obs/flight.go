package obs

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// EventKind names a flight-recorder event. The A/B payloads are
// kind-specific (documented per constant); Dur is a duration in
// nanoseconds where the event has one.
type EventKind uint8

const (
	// EvCheckpointFull: a checkpoint sealed. A=bytes, B=pairs.
	EvCheckpointFull EventKind = iota
	// EvRecovery: a recovery pass. A=pairs applied, B=WAL records replayed.
	EvRecovery
	// EvWALStall: an appender blocked on the unsynced-bytes bound.
	// A=unsynced bytes at entry; Dur is the stall.
	EvWALStall
	// EvWALDrop: a WAL append dropped (closed or over hard bound). A=bytes.
	EvWALDrop
	// EvWALRotate: the WAL sealed a segment. A=segment bytes.
	EvWALRotate
	// EvMaintSweep: a maintenance sweep that found work. A=structural
	// changes plus nodes freed.
	EvMaintSweep
	// EvFtxAbort: an Atomic transaction starting another attempt after
	// repeated conflicts (recorded once per attempt above a retry
	// threshold). A=retries so far; B and Dur are unused.
	EvFtxAbort
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"checkpoint.full", "recovery", "wal.stall", "wal.drop", "wal.rotate",
	"maint.sweep", "ftx.abort",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one recorded occurrence. Plain data only — recording one never
// allocates.
type Event struct {
	At   int64     `json:"at"` // unix nanoseconds
	Kind EventKind `json:"kind"`
	Dur  int64     `json:"dur_ns"`
	A    int64     `json:"a"`
	B    int64     `json:"b"`
}

// flightSlot holds one event in atomic fields guarded by a per-slot
// seqlock version (odd while a writer owns the slot). All fields are
// atomics so concurrent wraparound reads are race-detector-clean; the
// version makes the five fields mutually consistent.
type flightSlot struct {
	ver  atomic.Uint64
	at   atomic.Int64
	kind atomic.Int64
	dur  atomic.Int64
	a    atomic.Int64
	b    atomic.Int64
}

// FlightRecorder is a bounded lock-free ring of recent notable events.
// Record claims the next slot with a global sequence counter and publishes
// under the slot's seqlock; when the ring wraps, the oldest events are
// overwritten. Dump it on demand (Events/WriteTo, or the HTTP endpoint's
// /flight) or on panic (DumpOnPanic).
type FlightRecorder struct {
	seq   atomic.Uint64
	slots []flightSlot
	dumpW io.Writer // destination for DumpOnPanic; os.Stderr when nil
}

// NewFlightRecorder returns a recorder keeping the most recent `size`
// events (rounded up to a power of two, minimum 16).
func NewFlightRecorder(size int) *FlightRecorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]flightSlot, n)}
}

// Record appends an event. Allocation-free and safe from any goroutine. A
// nil recorder ignores the call, so layers can hold an optional recorder
// behind one nil check.
func (f *FlightRecorder) Record(kind EventKind, dur time.Duration, a, b int64) {
	if f == nil {
		return
	}
	i := f.seq.Add(1) - 1
	s := &f.slots[i&uint64(len(f.slots)-1)]
	// Claim the slot: flip the version odd. If another writer lapped us
	// onto the same slot and holds it, drop this event rather than spin —
	// the recorder is diagnostics, not a ledger.
	v := s.ver.Load()
	if v&1 == 1 || !s.ver.CompareAndSwap(v, v+1) {
		return
	}
	s.at.Store(time.Now().UnixNano())
	s.kind.Store(int64(kind))
	s.dur.Store(int64(dur))
	s.a.Store(a)
	s.b.Store(b)
	s.ver.Add(1)
}

// Events returns the recorded events, oldest first. Events being written
// concurrently are skipped rather than torn.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	end := f.seq.Load()
	n := uint64(len(f.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		s := &f.slots[i&(n-1)]
		for tries := 0; tries < 4; tries++ {
			v1 := s.ver.Load()
			if v1&1 == 1 {
				continue
			}
			ev := Event{At: s.at.Load(), Kind: EventKind(s.kind.Load()), Dur: s.dur.Load(), A: s.a.Load(), B: s.b.Load()}
			if s.ver.Load() != v1 {
				continue
			}
			if ev.At != 0 {
				out = append(out, ev)
			}
			break
		}
	}
	return out
}

// WriteTo dumps the recorded events as human-readable lines, oldest first.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range f.Events() {
		n, err := fmt.Fprintf(w, "%s %-16s dur=%-12s a=%-8d b=%d\n",
			time.Unix(0, ev.At).UTC().Format("15:04:05.000000"),
			ev.Kind, time.Duration(ev.Dur), ev.A, ev.B)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SetDumpWriter redirects DumpOnPanic output (default os.Stderr).
func (f *FlightRecorder) SetDumpWriter(w io.Writer) { f.dumpW = w }

// DumpOnPanic is meant to be deferred at the top of a worker or main: if
// the goroutine is panicking it dumps the flight recorder to the dump
// writer and re-raises the panic unchanged.
func (f *FlightRecorder) DumpOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	if f != nil {
		w := f.dumpW
		if w == nil {
			w = os.Stderr
		}
		fmt.Fprintf(w, "-- flight recorder (%d events) --\n", len(f.Events()))
		f.WriteTo(w)
	}
	panic(r)
}
