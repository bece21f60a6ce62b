// Overload wiring for the serving layer: the admission gate in front of
// the worker-pool queue, the brownout degradation policy (prefetch off
// under pressure, cold misses shed when browned out), the retry-budget
// gate the hardened load path consults, and the background evaluator
// that keeps the brownout controller ticking — recovery must happen
// even when no traffic arrives to drive it.
package romserver

import (
	"context"
	"errors"
	"math"
	"time"

	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/traceprof"
)

// overloadState is the server's overload layer, nil when
// Options.Overload is unset.
type overloadState struct {
	adm *overload.Admission
	ctl *overload.Controller
	bud *overload.RetryBudget

	// lastQW is the previous queue-wait snapshot; the evaluator
	// differences against it to feed the admission estimator a recent
	// (windowed) wait quantile rather than the lifetime distribution.
	lastQW     obsv.HistogramSnapshot
	ticksSince int
}

// evalInterval is how often the evaluator re-evaluates the brownout
// level against queue fill: several times per controller dwell, so
// recovery steps down one level per dwell.
const evalInterval = 25 * time.Millisecond

// recentWaitTicks is how many evaluator ticks pass between recent-wait
// refreshes (250ms at evalInterval): long enough to gather a
// meaningful histogram delta, short enough to track a storm.
const recentWaitTicks = 10

// recentWaitMinSamples is the smallest histogram delta worth trusting
// as a wait signal; below it the window is treated as idle and cleared.
const recentWaitMinSamples = 8

func newOverloadState(cfg overload.Config, workers int, met *serverMetrics) *overloadState {
	o := &overloadState{
		adm: overload.NewAdmission(workers),
		ctl: overload.NewController(cfg),
		bud: overload.NewRetryBudget(cfg.RetryRatio, cfg.RetryBurst),
	}
	o.ctl.OnChange(func(from, to overload.Level) { met.overloadTransitions.Inc() })
	return o
}

// overloadEvaluator ticks the brownout controller against queue fill
// and refreshes the admission estimator's windowed wait signal.
func (s *Server) overloadEvaluator() {
	defer s.wg.Done()
	ticker := time.NewTicker(evalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.ovl.evalOnce(s)
		case <-s.quit:
			return
		}
	}
}

func (o *overloadState) evalOnce(s *Server) {
	fill := float64(len(s.tasks)) / float64(cap(s.tasks))
	o.ctl.Evaluate(fill)

	o.ticksSince++
	if o.ticksSince < recentWaitTicks {
		return
	}
	cur := s.met.queueWait.Snapshot()
	delta := cur.Sub(o.lastQW)
	switch {
	case delta.Count >= recentWaitMinSamples:
		o.adm.SetRecentWait(delta.Quantile(0.9))
		o.lastQW, o.ticksSince = cur, 0
	case delta.Count == 0:
		// Idle window: clear the signal so a long-gone storm's waits
		// cannot keep rejecting traffic, and restart the window.
		o.adm.SetRecentWait(0)
		o.lastQW, o.ticksSince = cur, 0
	default:
		// Too few samples to trust — keep accumulating into this window.
	}
}

// retryAfter turns a wait estimate into a Retry-After hint: at least a
// second, at most 30 (clients should re-resolve, not camp).
func retryAfter(est time.Duration) time.Duration {
	secs := math.Ceil(est.Seconds())
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// admit is the overload gate for every read that missed the cache, run
// before its miss runs touch the pool queue (cached blocks never reach
// it): while browned out, every miss block must be in the trained hot
// set or the read is shed; an estimated queue wait beyond the caller's
// deadline rejects up front; an admitted read funds the retry budget
// once.
func (s *Server) admit(ctx context.Context, img *image, runs []missRun) error {
	o := s.ovl
	if o.ctl.Level() == overload.BrownedOut {
		for _, r := range runs {
			for b := r.first; b <= r.last; b++ {
				if !img.isHot(b) {
					s.met.brownoutShed.Inc()
					return &overload.RejectError{
						Reason:     overload.ReasonBrownout,
						RetryAfter: retryAfter(o.adm.EstimateWait(len(s.tasks))),
					}
				}
			}
		}
	}
	est := o.adm.EstimateWait(len(s.tasks) + len(runs))
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok && est > time.Until(dl) {
			s.met.admissionDeadline.Inc()
			return &overload.RejectError{Reason: overload.ReasonDeadline, RetryAfter: retryAfter(est)}
		}
	}
	o.bud.OnRequest()
	return nil
}

// reportOutcome reports how a read that admit let through ended, demand
// or bulk alike: every admit gets exactly one goodput outcome. Shutdown
// and a queue-full reject after admission are not outcomes; the
// controller must not count the mechanism working.
func (s *Server) reportOutcome(err error) {
	if s.ovl == nil || errors.Is(err, ErrClosed) {
		return
	}
	if err != nil {
		// Declared here so that only a failed read pays for the escape.
		var rej *overload.RejectError
		if errors.As(err, &rej) {
			return
		}
	}
	s.ovl.ctl.ReportOutcome(err == nil)
}

// retryAllowed is the budget gate the hardened load path consults
// before each retry attempt; always true when overload is off.
func (s *Server) retryAllowed() bool {
	if s.ovl == nil {
		return true
	}
	if s.ovl.bud.Allow() {
		return true
	}
	s.met.retryDenied.Inc()
	return false
}

// hotSetFraction sizes the brownout hot set as a fraction of the
// block-cache capacity.
const hotSetFraction = 0.5

// setHotSet computes the image's brownout hot set from its trained
// profile: the hottest hotSetFraction×cache-capacity blocks, the
// traffic that keeps decoding while browned out. Cheap enough to run on
// every Train even when overload is off (the slice is just unused).
func (s *Server) setHotSet(img *image, p *traceprof.Profile) {
	n := int(float64(s.cache.Capacity()) * hotSetFraction)
	if n < 1 {
		n = 1
	}
	hot := make([]bool, img.blocks)
	for _, b := range p.HotSet(n) {
		if b >= 0 && b < img.blocks {
			hot[b] = true
		}
	}
	img.hot.Store(&hot)
}

// isHot reports whether the block is in the image's trained hot set.
// Untrained images have no hot set: everything is cold under brownout,
// which is the safe default for unknown traffic.
func (img *image) isHot(b int) bool {
	h := img.hot.Load()
	return h != nil && b >= 0 && b < len(*h) && (*h)[b]
}

// OverloadLevel reports the brownout controller's current level;
// Healthy when the overload layer is disabled.
func (s *Server) OverloadLevel() overload.Level {
	if s.ovl == nil {
		return overload.Healthy
	}
	return s.ovl.ctl.Level()
}
