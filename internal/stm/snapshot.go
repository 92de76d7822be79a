package stm

// A Snapshot is a long-lived read-only transaction session: a sequence of
// Read calls served from one consistent read snapshot of the domain, open
// across ordinary operation boundaries. It exists for batched execution-
// phase reads — the buffering transaction of internal/ftx used to pay one
// committed read-only transaction per distinct key it read, and a Snapshot
// replaces that with one snapshot per transaction: every cache-miss read
// joins the same open transaction, whose invisible reads validate (with
// timestamp extension) against one rv.
//
// A Snapshot never writes (the descriptor is marked read-only and Write
// panics), so it holds no locks and needs no commit: each successful Read
// call's observations are consistent at the session's current snapshot
// position, exactly as a read-only CTL transaction's are. When validation
// fails mid-read the session aborts and silently resets — the next Read
// begins a fresh snapshot — and the failed call reports false so the caller
// re-executes its read closure. Consistency is therefore per-session-era,
// not global: callers that need their full read set revalidated at one
// point (the ftx coordinator does) must replay the reads inside a
// committing transaction, which is unchanged from the per-key regime.
//
// The session uses its own transaction descriptor, distinct from the
// thread's ordinary one, so the owning thread can run Atomic/Prepare
// between (not within) Read calls — ftx's commit transaction does exactly
// that. At most one Snapshot may be open per thread; Close releases the
// slot. Like everything on a Thread, a Snapshot is single-goroutine.
//
// Ownership: the session is a value embedded in its Thread, so opening one
// allocates nothing and NewSnapshot hands out the same pointer every time.
// A *Snapshot kept past Close therefore aliases whichever session the
// thread opens next; drop it at Close.
//
// Garbage-collection note: each Read call raises the thread's §3.4 pending
// flag and counts one completed operation on the way out, so the arena
// collector never frees nodes under a traversal in progress. Between Read
// calls the thread is observably idle and reclamation may proceed; a node
// recycled under the open session changes the versioned metadata of any
// logged read that touched it, so the session aborts and resets rather
// than observing freed state.
type Snapshot struct {
	th     *Thread
	begun  bool
	closed bool
}

// NewSnapshot opens a read-only snapshot session on the thread. The
// underlying transaction begins lazily at the first Read. It panics when a
// session is already open on the thread (sessions are a per-thread
// singleton) — Close the previous one first.
func (th *Thread) NewSnapshot() *Snapshot {
	if th.snapLive {
		panic("stm: a Snapshot session is already open on this thread")
	}
	if th.snapTx == nil {
		t := &Tx{readOnly: true}
		t.init(th)
		th.snapTx = t
	}
	th.snapLive = true
	th.snap = Snapshot{th: th}
	return &th.snap
}

// Read runs fn against the session's snapshot. fn receives the session's
// read-only transaction and must only perform reads (Tx.Read/URead and the
// tree read operations built on them); Write panics. Read returns true when
// fn ran to completion — its observations are consistent with everything
// the session has returned since it last began — and false when the
// snapshot could not be extended over a concurrent commit: the session has
// reset, and the caller should simply call Read again (the retried call
// starts a fresh snapshot and, with the session's read set empty again,
// can only fail on transient lock encounters).
func (s *Snapshot) Read(fn func(*Tx)) (ok bool) {
	if s.closed {
		panic("stm: Read on a closed Snapshot session")
	}
	th := s.th
	tx := th.snapTx
	if !s.begun {
		tx.begin(CTL)
		s.begun = true
	}
	th.pending.Store(true)
	defer func() {
		th.completeOp()
		th.pending.Store(false)
		if r := recover(); r != nil {
			if r == abortSignal {
				// Validation failed: the session's snapshot is dead. Reset so
				// the next Read begins fresh.
				s.begun = false
				ok = false
				return
			}
			panic(r)
		}
	}()
	fn(tx)
	return true
}

// Pos reports the session's current snapshot position (0 before the first
// Read). Reads returned since the session last began are consistent at it.
func (s *Snapshot) Pos() uint64 {
	if !s.begun {
		return 0
	}
	return s.th.snapTx.rv
}

// Close ends the session and releases the thread's snapshot slot. A
// read-only transaction holds nothing, so Close performs no rollback;
// closing an already-closed session is a no-op.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.th.snapLive = false
}
