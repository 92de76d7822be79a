package stm

// Two-phase transaction support: a transaction attempt can be driven to a
// *prepared* state — reads validated, write locks acquired, writes still
// unpublished — and later either finalized (published) or dropped (rolled
// back). This is the STM-side half of the forest's cross-shard transaction
// coordinator (internal/ftx): the coordinator prepares one sub-transaction
// per participating shard, in ascending shard order, and finalizes them all
// only once every shard has reached its lock point.
//
// Correctness sketch. prepare() is exactly the first half of commit():
// commit-time lock acquirement over the write set, then the clock draw,
// then full read-set validation. A prepared transaction therefore holds
// every write lock it will ever need, so between prepare and finalize no
// concurrent transaction can read or overwrite any word the prepared
// transaction is about to publish (readers of a locked word spin briefly
// and abort; writers lose the lock CAS and abort). The transaction's
// serialization point is its lock point: all of its reads were
// simultaneously valid there, its clock position was drawn there (see
// prepare's comment for why drawing it any later breaks concurrent
// commits' validation-skip fast path), and its writes become visible
// later — published by finalize() with the lock-point version — under the
// protection of the held locks.

// Prepared is a transaction attempt held at its lock point. Exactly one of
// Finalize or Drop must be called, on the same goroutine that called
// Prepare; the owning Thread cannot start another transaction until then.
// The handle is a value embedded in that Thread — a thread holds at most one
// prepared attempt, so Prepare allocates nothing and returns the same
// pointer every time; drop it once the attempt is finalized or dropped.
type Prepared struct {
	th   *Thread
	done bool
}

// Prepare runs fn once as a CTL transaction attempt on th and, instead of
// committing, holds the attempt prepared: reads validated, write locks
// acquired, writes buffered but unpublished. It returns (nil, false) when
// the attempt aborts — a validation failure, a lost lock race, or an
// explicit Tx.Restart — leaving no locks behind; Prepare itself never
// retries and never pauses (the caller owns the retry).
//
// fn runs under the same contract as AtomicMode's fn: transactional
// accesses only, no side effects beyond locals, impossible observations
// answered with Tx.Restart. The operation accounting (pending flag,
// completed-operation counter, MaxOpReads) opened by Prepare is closed by
// Finalize or Drop, so every thread's §3.4 limbo treats the whole prepared
// window as one in-flight operation and frees nothing the prepared
// transaction may still reference.
func (th *Thread) Prepare(fn func(*Tx)) (*Prepared, bool) {
	if th.inAtomic {
		panic("stm: Prepare inside a running transaction; compose by passing *Tx instead")
	}
	th.inAtomic = true
	th.pending.Store(true)
	th.opReads = 0
	tx := &th.tx
	tx.begin(CTL)
	if !th.runPrepareAttempt(tx, fn) {
		th.endOp()
		return nil, false
	}
	th.prep = Prepared{th: th}
	return &th.prep, true
}

// runPrepareAttempt executes one attempt of fn and tries to reach the lock
// point, converting the abort panic into a false return (the prepared-state
// analogue of runAttempt).
func (th *Thread) runPrepareAttempt(tx *Tx, fn func(*Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == abortSignal {
				ok = false
				return
			}
			// A foreign panic (bug in user code) must not leave write
			// locks or the attempt's nodes behind, nor the operation open
			// (see runAttempt).
			tx.undo()
			th.endOp()
			panic(r)
		}
	}()
	fn(tx)
	return tx.prepare()
}

// Finalize publishes the prepared writes and releases the locks, completing
// the transaction: the nodes it retired join the thread's limbo, and
// Thread.LastCommit reports its position from now on — a
// prepared-then-dropped attempt publishes nothing and reports 0, exactly
// like an aborted Atomic attempt.
func (p *Prepared) Finalize() {
	if p.done {
		panic("stm: Finalize on a completed Prepared transaction")
	}
	p.done = true
	tx := &p.th.tx
	tx.finalizePrepared()
	p.th.endOp()
}

// WriteVersion returns the clock position the prepared transaction's writes
// publish at (drawn at the lock point — see prepare). It is 0 for a
// prepared transaction with an empty write set, which publishes nothing.
// The cross-shard coordinator reads it before Finalize to stamp the shard's
// share of a durable commit record.
func (p *Prepared) WriteVersion() uint64 { return p.th.tx.preparedWV }

// Drop aborts the prepared transaction: locks are released with their
// pre-lock metadata restored, the buffered writes are discarded, the nodes
// the attempt allocated are freed, its retires are forgotten, and the
// attempt is counted as an abort.
func (p *Prepared) Drop() {
	if p.done {
		panic("stm: Drop on a completed Prepared transaction")
	}
	p.done = true
	p.th.tx.undo()
	p.th.noteAbort(AbortCoordinated)
	p.th.endOp()
}

// prepare drives the attempt to its lock point: acquire the write locks
// (commit-time locking), draw the transaction's clock position, then
// validate the full read set — the same lock→clock→validate order as
// commit(). On failure the attempt is rolled back and counted as an abort.
//
// Two details differ from commit and both are load-bearing:
//
//   - prepare always validates; publication happens later, so the
//     validation-skip fast path of commit() does not apply to the
//     prepared transaction itself.
//   - the write version is drawn NOW, with an eager fetch-add, not at
//     finalize — and deliberately NOT with commit()'s lazy shared draw. A
//     prepared transaction holds locks across an extended window; if the
//     clock did not move at the lock point, a concurrent ordinary commit
//     could still find clock == rv, win its CAS, skip validation, and
//     never observe the prepared locks — committing a stale read of a
//     word the prepared transaction is about to overwrite (a write-skew
//     that loses the prepared write; the cross-shard oracle catches
//     exactly this against the optimized tree's copy-on-rotate). The
//     fetch-add at the lock point restores the TL2 invariant behind the
//     fast path: every write the prepared transaction will publish is
//     anchored to a clock position taken while its locks were already
//     held, so any transaction committing at a later position validates
//     in full and aborts on those locks. One RMW per prepared shard
//     transaction is irrelevant next to the coordination it buys.
func (tx *Tx) prepare() bool {
	lock := packLock(tx.th.slot)
	for i := range tx.writes {
		e := &tx.writes[i]
		m := e.w.meta.Load()
		if isLocked(m) || !e.w.meta.CompareAndSwap(m, lock) {
			tx.rollback(AbortLockWait)
			return false
		}
		e.prevMeta = m
		e.locked = true
	}
	if len(tx.writes) > 0 {
		tx.preparedWV = tx.th.stm.clock.Add(1)
	}
	if !tx.validateReads() {
		tx.rollback(AbortValidation)
		return false
	}
	tx.th.stats.Prepares++
	return true
}

// finalizePrepared is the publication half of commit, run on a transaction
// whose prepare already succeeded: publish values, then release the locks
// by publishing the metadata carrying the lock-point write version.
func (tx *Tx) finalizePrepared() {
	if len(tx.writes) == 0 {
		tx.commitPos = tx.rv
		tx.th.noteCommit()
		return
	}
	tx.commitPos = tx.preparedWV
	newMeta := packVersion(tx.preparedWV)
	for i := range tx.writes {
		e := &tx.writes[i]
		e.w.val.Store(e.val)
	}
	for i := range tx.writes {
		e := &tx.writes[i]
		e.w.meta.Store(newMeta)
		e.locked = false
	}
	tx.th.noteCommit()
}
