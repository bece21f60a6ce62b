// The decode watchdog: every pool worker owns one reusable
// time.AfterFunc timer that bounds the ticket it serves. The codec runs
// inline on the worker, so a cache miss costs no goroutine, channel or
// timer allocation and no cross-thread handoff. The watchdog is armed
// when a ticket starts (covering a singleflight wait on another worker's
// decode), re-armed with a fresh deadline before every decode attempt,
// and disarmed when the ticket ends.
//
// Arming only moves a deadline under the worker's mutex. The runtime
// timer is re-added only when it would otherwise fire after the new
// deadline; a firing that finds a later deadline re-arms for it, and one
// that finds the worker idle lapses. Under steady load the timer is
// touched about once per load timeout instead of twice per ticket —
// re-adding a timer can wake the network poller, which costs more than
// a block decode.
//
// When a deadline passes, the watchdog answers the ticket itself — with
// ErrDecompressTimeout, or the context error when the request deadline
// was the tighter bound — and retires the wedged worker: a replacement
// worker takes over its WaitGroup slot and its inflight count, so the
// pool keeps its size and Close never waits on a wedged decoder. The
// retired goroutine exits when (and if) its decode returns, without
// replying: exactly one of worker and watchdog answers each ticket,
// decided under the worker's mutex.
package romserver

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// errOutlived is what a decode that outlived its watchdog reports to
// whoever still waits on it — the other waiters of its cache flight. Its
// own ticket was already answered by the watchdog.
var errOutlived = fmt.Errorf("%w: decode outlived its watchdog", ErrDecompressTimeout)

// errOutlivedDeadline is errOutlived for a worker retired at its
// ticket's own request deadline rather than at LoadTimeout. It wraps
// the context error, so the flight's waiters, whose contexts may still
// be live, load the block again instead of failing with it (see
// handle).
var errOutlivedDeadline = fmt.Errorf("romserver: decode outlived its request's deadline: %w", context.DeadlineExceeded)

// poolWorker is one decode-pool goroutine and its watchdog.
type poolWorker struct {
	s   *Server
	dog *time.Timer

	mu sync.Mutex
	// t is the ticket in progress, valid while busy.
	t    task
	busy bool
	// retired is set once, by the watchdog, when it answered t itself:
	// the goroutine no longer belongs to the pool and never replies.
	// It is what the goroutine's later guarded sections report:
	// errOutlivedDeadline if the request deadline retired it, else
	// errOutlived.
	retired error
	// due is when the pending timer fires; zero when none is pending.
	due time.Time
	// deadline bounds the guarded section in progress (the ticket start,
	// one decode attempt); zero outside guarded sections,
	// where the worker only does bounded bookkeeping.
	deadline time.Time
	// timeout and block describe the guarded section for the error.
	timeout time.Duration
	block   int

	// The ticket's context, resolved once by bind: its Done channel
	// (nil for none) and its deadline (zero for none). Worker-owned,
	// like acct.
	done <-chan struct{}
	dl   time.Time
	// acct accumulates the ticket's load-path observations until end
	// publishes them.
	acct loadAcct
	// blocks collects the ticket's loaded blocks. Only once end has
	// decided that the worker, not the watchdog, answers the ticket are
	// they copied into its reply, which the watchdog may answer instead.
	blocks []runBlock
}

// startWorker adds one goroutine to the pool. The caller accounts for
// its WaitGroup slot.
func (s *Server) startWorker() {
	w := &poolWorker{s: s}
	w.dog = time.AfterFunc(time.Hour, w.fire)
	w.dog.Stop()
	go w.run()
}

func (w *poolWorker) run() {
	s := w.s
	for {
		select {
		case t := <-s.tasks:
			if !w.handle(t) {
				return
			}
		case <-s.quit:
			// Drain whatever was queued before shutdown, then exit.
			for {
				select {
				case t := <-s.tasks:
					if !w.handle(t) {
						return
					}
				default:
					s.wg.Done()
					return
				}
			}
		}
	}
}

// bind resolves ticket context ctx (nil for none) once, at the
// ticket's clock reading now: the worker keeps its Done channel and
// deadline for every guarded section the ticket opens, and the
// returned timeout bounds the ticket's start. An error (the context's,
// or DeadlineExceeded for a deadline that passed before the context
// noticed) means the ticket must not start.
func (w *poolWorker) bind(ctx context.Context, now time.Time) (time.Duration, error) {
	w.done, w.dl = nil, time.Time{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		w.done = ctx.Done()
		w.dl, _ = ctx.Deadline()
	}
	return w.timeoutAt(now)
}

// timeoutAt is how long a guarded section starting at now may run:
// LoadTimeout (non-positive: unbounded), clamped by the ticket's
// deadline, so a propagated client deadline bounds the decompression
// it pays for.
func (w *poolWorker) timeoutAt(now time.Time) (time.Duration, error) {
	timeout := w.s.opts.LoadTimeout
	if !w.dl.IsZero() {
		rem := w.dl.Sub(now)
		if rem <= 0 {
			return 0, context.DeadlineExceeded
		}
		if timeout <= 0 || rem < timeout {
			timeout = rem
		}
	}
	return timeout, nil
}

// begin starts ticket t at now under the watchdog, bounded by timeout
// (non-positive: unbounded). The caller passes the clock reading it
// needs anyway, so arming costs a cache hit no extra reading.
func (w *poolWorker) begin(t task, timeout time.Duration, now time.Time) {
	w.s.inflight.Add(1)
	w.mu.Lock()
	w.t, w.busy = t, true
	w.guardLocked(t.block, timeout, now)
	w.mu.Unlock()
}

// guard opens a guarded section — one decode attempt of block —
// starting at now, bounded by timeoutAt(now). It reads no
// clock, and it asks ctx (the ticket's) only for its error once bind's
// Done channel is closed. An error means the section must not start:
// the request context is done, or the watchdog already retired this
// goroutine (w.retired).
func (w *poolWorker) guard(ctx context.Context, block int, now time.Time) error {
	select {
	case <-w.done:
		return ctx.Err()
	default:
	}
	timeout, err := w.timeoutAt(now)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired != nil {
		return w.retired
	}
	w.guardLocked(block, timeout, now)
	return nil
}

// guardLocked sets the deadline and makes sure the timer fires no later
// than it.
func (w *poolWorker) guardLocked(block int, timeout time.Duration, now time.Time) {
	w.block, w.timeout = block, timeout
	if timeout <= 0 {
		w.deadline = time.Time{}
		return
	}
	w.deadline = now.Add(timeout)
	if w.due.IsZero() || w.due.After(w.deadline) {
		w.due = w.deadline
		w.dog.Reset(timeout)
	}
}

// settle closes the guarded section after the guarded call returned.
// An error means the watchdog retired this goroutine meanwhile.
func (w *poolWorker) settle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deadline = time.Time{}
	return w.retired
}

// isRetired reports whether the watchdog has retired this goroutine.
func (w *poolWorker) isRetired() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.retired != nil
}

// end finishes the ticket: it publishes the ticket's load-path
// observations, also for a goroutine the watchdog retired, and disarms
// the watchdog. false means the watchdog answered the ticket instead:
// the caller must not reply, and the goroutine must exit.
func (w *poolWorker) end() bool {
	w.acct.flush(w.s.met)
	w.mu.Lock()
	if w.retired != nil {
		w.mu.Unlock()
		return false
	}
	w.t, w.busy, w.deadline = task{}, false, time.Time{}
	w.mu.Unlock()
	w.s.inflight.Add(-1)
	return true
}

// fire is the timer callback. A firing that finds the worker outside a
// guarded section lapses and one whose deadline has moved on re-arms;
// one that finds the deadline passed retires the worker, starts its
// replacement and answers the ticket.
func (w *poolWorker) fire() {
	w.mu.Lock()
	w.due = time.Time{}
	if !w.busy || w.retired != nil || w.deadline.IsZero() {
		w.mu.Unlock()
		return
	}
	if rem := time.Until(w.deadline); rem > 0 {
		w.due = w.deadline
		w.dog.Reset(rem)
		w.mu.Unlock()
		return
	}
	t, block, timeout := w.t, w.block, w.timeout
	deadline := timeout != w.s.opts.LoadTimeout
	w.retired = errOutlived
	if deadline {
		w.retired = errOutlivedDeadline
	}
	w.t = task{}
	w.mu.Unlock()

	s := w.s
	s.inflight.Add(-1)
	s.startWorker() // inherits the retired worker's WaitGroup slot
	s.met.decodeTimeouts.Inc()
	if deadline {
		// The request deadline was the tighter bound: its caller gets
		// the context error, as from an expired retry loop.
		t.fail(context.DeadlineExceeded)
		return
	}
	img := t.img
	s.met.loadFailures.Inc()
	s.recordHealth(img, block, true)
	t.fail(fmt.Errorf("%w: block %d of %q after %v", ErrDecompressTimeout, block, img.name, timeout))
}
