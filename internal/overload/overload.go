// Package overload is the serving stack's self-protection layer: the
// admission, degradation and retry-containment machinery that keeps a
// saturated decompression pool answering *something* instead of
// collapsing into a convoy of timed-out work.
//
// The paper's slowest decoders (SAMC at ~19 MB/s) mean a burst of cold
// block misses can pin every pool worker for milliseconds at a time; a
// queue that accepts everything then serves requests whose callers gave
// up long ago. This package provides the three mechanisms the romserver
// and cluster tiers wire in front of that pool:
//
//   - Admission: an EWMA-based queue-wait estimator. A request whose
//     estimated wait already exceeds its propagated deadline is rejected
//     up front (HTTP 429 + Retry-After) instead of being accepted and
//     timing out after consuming a worker.
//   - RetryBudget: a token-bucket cap on retry amplification. Each
//     first-attempt request deposits a fraction of a token; each retry
//     (or hedge, in the router) spends one. With ratio r the system-wide
//     amplification is bounded by 1+r no matter how bursty the faults.
//   - Controller: a brownout state machine (Healthy → Pressured →
//     BrownedOut) driven by pool-queue fill and goodput. Escalation is
//     immediate; de-escalation steps down one level at a time behind
//     hysteresis thresholds and a dwell, so the level cannot flap.
//
// The degradation policy attached to the levels lives in the callers:
// romserver drops prefetch at Pressured and sheds cold (non-hot,
// uncached) misses at BrownedOut using traceprof heat, and the cluster
// router stops hedging into members that recently signalled overload.
package overload

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// DeadlineHeader is the HTTP request header carrying the client's
// remaining deadline in integer milliseconds. Every serving tier speaks
// it: the client sets it from its context deadline, codecompd and
// cluster nodes parse it into the request context, and the router
// forwards it to the replica it proxies to.
const DeadlineHeader = "X-Deadline-Ms"

// HeaderValue renders ctx's remaining deadline as a DeadlineHeader
// value: integer milliseconds, at least 1 so an almost-expired deadline
// still propagates as expired-soon rather than vanishing. Empty when
// ctx has no deadline.
func HeaderValue(ctx context.Context) string {
	dl, ok := ctx.Deadline()
	if !ok {
		return ""
	}
	ms := int64(time.Until(dl) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(ms, 10)
}

// WithDeadlineHeader applies a propagated DeadlineHeader value to ctx.
// An empty value passes ctx through with a no-op cancel; a malformed or
// non-positive value is an error the server should answer 400. The
// returned cancel must always be called.
func WithDeadlineHeader(ctx context.Context, val string) (context.Context, context.CancelFunc, error) {
	if val == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(val, 10, 64)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("overload: invalid %s value %q (want positive integer milliseconds)", DeadlineHeader, val)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return dctx, cancel, nil
}

// Reason classifies why a request was rejected by the overload layer.
type Reason string

const (
	// ReasonDeadline: the estimated queue wait exceeded the request's
	// remaining deadline — the work was destined to time out.
	ReasonDeadline Reason = "deadline"
	// ReasonQueueFull: the bounded admission queue had no room.
	ReasonQueueFull Reason = "queue_full"
	// ReasonBrownout: the server is browned out and the request needed a
	// cold decompression (not cached, not in the heat-trained hot set).
	ReasonBrownout Reason = "brownout"
)

// RejectError is a request refused by admission control or brownout.
// Callers map it onto HTTP: 429 + Retry-After for admission rejects
// (deadline, queue_full), 503 + Retry-After for brownout.
type RejectError struct {
	// Reason says which gate refused the request.
	Reason Reason
	// RetryAfter is the server's estimate of when capacity returns —
	// the value behind the Retry-After header.
	RetryAfter time.Duration
}

// Error renders the rejection.
func (e *RejectError) Error() string {
	return fmt.Sprintf("overload: rejected (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Level is the brownout controller's degradation level.
type Level int32

const (
	// Healthy: full service — prefetch on, hedging on, everything
	// admitted that fits its deadline.
	Healthy Level = iota
	// Pressured: the pool queue is filling (or goodput is slipping).
	// Speculative work stops: prefetch is suppressed and the router
	// avoids hedging into this server.
	Pressured
	// BrownedOut: the pool is saturated. Only cached blocks and blocks
	// in the heat-trained hot set are served; cold misses are shed with
	// 503 + Retry-After so the remaining capacity goes to traffic that
	// can actually be served in time.
	BrownedOut
)

// String names the level the way the runbook and metrics do.
func (l Level) String() string {
	switch l {
	case Healthy:
		return "healthy"
	case Pressured:
		return "pressured"
	case BrownedOut:
		return "browned_out"
	}
	return fmt.Sprintf("Level(%d)", int32(l))
}

// Config tunes the overload layer. Zero values pick production-shaped
// defaults; see each field. The controller's timing and outcome window
// are fixed (see controller.go), so a Config carries only the retry
// budget's shape and the clock.
type Config struct {
	// RetryRatio is the token fraction each first attempt deposits into
	// the retry budget (NewRetryBudget's default when zero).
	RetryRatio float64
	// RetryBurst is the budget's bucket capacity: how many retries can
	// fire back-to-back after an idle stretch (NewRetryBudget's default
	// when zero).
	RetryBurst float64

	// Now is the controller clock, a test hook (default time.Now).
	Now func() time.Time
}
