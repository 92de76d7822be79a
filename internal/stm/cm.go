package stm

import (
	"fmt"
	"runtime"
	"time"
)

// A ContentionManager decides what a thread does between an aborted
// transaction attempt and its retry. The transaction-lifecycle engine
// (Thread.AtomicMode) consults it after every abort to shape the
// inter-attempt delay.
//
// Policies must be safe for concurrent use by many threads: all mutable
// per-thread state (random streams, statistics) lives on the *Thread passed
// in, never on the manager value itself, so a single manager instance can be
// shared by a whole STM domain.
type ContentionManager interface {
	// Name returns the policy's registry name ("suicide", "backoff", ...).
	Name() string
	// OnAbort runs after the retries-th aborted attempt of the current
	// operation (retries starts at 1). It typically stalls the thread for a
	// policy-specific delay before the lifecycle engine retries.
	OnAbort(th *Thread, retries int)
}

// Suicide returns the contention manager that aborts the losing transaction
// and retries it almost immediately: a tiny randomized spin (at most
// 2^min(retries-1,16) iterations) followed by one scheduler yield. This is
// bit-for-bit the retry behavior of the pre-forest engine, so experiment
// configurations that must reproduce the paper's single-domain runs select
// it explicitly.
func Suicide() ContentionManager { return suicideCM{} }

type suicideCM struct{}

func (suicideCM) Name() string { return "suicide" }

func (suicideCM) OnAbort(th *Thread, retries int) {
	a := retries - 1
	if a > 16 {
		a = 16
	}
	spin := int(th.nextRand() % uint64(1<<uint(a)))
	for i := 0; i < spin; i++ {
		// Pure CPU delay; the loop body must not be optimizable away.
		th.rngState += uint64(i)
	}
	runtime.Gosched()
}

// backoff delay parameters: the first retry waits up to backoffBase, each
// further retry doubles the window, capped at backoffMax. The cap keeps the
// worst case well under scheduler-timeslice granularity so a stalled thread
// never parks in the kernel.
const (
	backoffBase = 256 * time.Nanosecond
	backoffMax  = 64 * time.Microsecond
)

// Backoff returns the randomized-exponential-backoff contention manager, the
// default policy: after the n-th abort of an operation the thread stalls for
// a uniform random duration in [0, min(base·2^(n-1), max)), yielding the
// processor while it waits. Stall time is accounted in Stats.BackoffNanos.
func Backoff() ContentionManager { return backoffCM{} }

type backoffCM struct{}

func (backoffCM) Name() string { return "backoff" }

func (backoffCM) OnAbort(th *Thread, retries int) {
	th.stall(jitteredWindow(th, retries))
}

// jitteredWindow draws a uniform random delay from the exponential window
// for the retries-th abort.
func jitteredWindow(th *Thread, retries int) time.Duration {
	w := backoffBase << uint(retries-1)
	if w > backoffMax || w <= 0 {
		w = backoffMax
	}
	return time.Duration(th.nextRand() % uint64(w))
}

// Managers lists the registered contention-manager names.
func Managers() []string { return []string{"suicide", "backoff"} }

// ManagerByName resolves a registry name to a policy instance.
func ManagerByName(name string) (ContentionManager, error) {
	switch name {
	case "suicide":
		return Suicide(), nil
	case "backoff", "":
		return Backoff(), nil
	default:
		return nil, fmt.Errorf("stm: unknown contention manager %q (have %v)", name, Managers())
	}
}
