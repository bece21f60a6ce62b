package overload

import (
	"sync"
	"sync/atomic"
	"time"
)

// The controller's thresholds, as fractions of the pool queue's
// capacity. Each exit threshold sits below its enter threshold, so the
// level does not flap while fill hovers near one value.
const (
	// pressureEnter is the fill at which Healthy escalates to Pressured.
	pressureEnter = 0.5
	// pressureExit is the fill the queue must fall back under before
	// Pressured de-escalates.
	pressureExit = 0.25
	// brownoutEnter is the fill at which Pressured escalates to
	// BrownedOut.
	brownoutEnter = 0.9
	// brownoutExit is the fill the queue must fall back under before
	// BrownedOut steps down: 0.9/2*1.1 in float64 arithmetic, one ulp
	// above 0.495, so a fill of exactly 99/200 (a queue depth that is a
	// multiple of 200) still steps down.
	brownoutExit = 0.49500000000000005
	// goodputFloor escalates on quality, not just depth: when the
	// success fraction of the recent outcome window drops below it, the
	// controller treats the server as pressured even with queue room.
	goodputFloor = 0.5
)

// The controller's timing and outcome window. The owning server
// evaluates several times per dwell (romserver ticks every 25ms), so
// recovery steps down one level per dwell, and the window goes stale
// only after a few dwells without reports.
const (
	// goodputWindow is the outcome ring size goodput is computed over.
	goodputWindow = 256
	// minObservations is how many outcomes the window needs before
	// goodput is trusted.
	minObservations = 32
	// dwell is the minimum time between de-escalations, so recovery
	// steps down visibly instead of flapping.
	dwell = 200 * time.Millisecond
	// staleAfter discards the outcome window when nothing has been
	// reported for this long: old failures must not pin a now-idle
	// server at Pressured.
	staleAfter = time.Second
)

// Controller is the brownout state machine. The owning server calls
// Evaluate periodically with the pool queue's fill fraction and reports
// request outcomes as they complete; the controller decides the
// degradation Level everyone else reads.
//
// Escalation is immediate — the moment fill crosses an enter threshold
// (or goodput falls through the floor) the level jumps to wherever the
// signals point. De-escalation is deliberately slow: one level per
// dwell, and only while fill sits below the current level's exit
// threshold, so a recovering server steps BrownedOut → Pressured →
// Healthy visibly instead of flapping on queue noise.
//
// Goodput is the success fraction of a ring of recent outcomes. Shed
// and rejected requests must NOT be reported — they are the mechanism
// working, and counting them would lock the controller into brownout.
// The ring is discarded after staleAfter without reports so old
// failures cannot pin an idle server at Pressured.
type Controller struct {
	now   func() time.Time
	level atomic.Int32

	mu         sync.Mutex
	lastChange time.Time
	lastReport time.Time
	ring       [goodputWindow]bool
	idx        int
	filled     int
	fails      int

	onChange func(from, to Level)
}

// NewController returns a controller at Healthy on cfg's clock
// (time.Now when unset).
func NewController(cfg Config) *Controller {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Controller{
		now:        now,
		lastChange: now(),
	}
}

// OnChange registers a callback invoked synchronously on every level
// transition (metrics hooks). It runs under the controller's lock and
// must not call back into the controller. Call before the controller is
// shared.
func (c *Controller) OnChange(fn func(from, to Level)) { c.onChange = fn }

// Level returns the current degradation level (lock-free).
func (c *Controller) Level() Level { return Level(c.level.Load()) }

// ReportOutcome records whether an admitted request succeeded. Do not
// report shed or rejected requests.
func (c *Controller) ReportOutcome(ok bool) {
	c.mu.Lock()
	if c.filled == len(c.ring) && !c.ring[c.idx] {
		c.fails--
	}
	c.ring[c.idx] = ok
	if !ok {
		c.fails++
	}
	c.idx = (c.idx + 1) % len(c.ring)
	if c.filled < len(c.ring) {
		c.filled++
	}
	c.lastReport = c.now()
	c.mu.Unlock()
}

// Goodput returns the success fraction over the outcome window and how
// many outcomes back it (1.0 when empty).
func (c *Controller) Goodput() (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.goodputLocked()
}

func (c *Controller) goodputLocked() (float64, int) {
	if c.filled == 0 {
		return 1, 0
	}
	return 1 - float64(c.fails)/float64(c.filled), c.filled
}

// Evaluate folds the current pool-queue fill fraction (0..1) into the
// state machine and returns the resulting level. Call it on a steady
// tick — recovery depends on Evaluate running even when no traffic
// arrives.
func (c *Controller) Evaluate(fill float64) Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()

	// Age out a stale outcome window: after staleAfter with no reports
	// the failures in it describe a load that is gone.
	if c.filled > 0 && now.Sub(c.lastReport) > staleAfter {
		c.filled, c.fails, c.idx = 0, 0, 0
	}

	good, n := c.goodputLocked()
	badGoodput := n >= minObservations && good < goodputFloor

	desired := Healthy
	switch {
	case fill >= brownoutEnter || (badGoodput && fill >= pressureEnter):
		desired = BrownedOut
	case fill >= pressureEnter || badGoodput:
		desired = Pressured
	}

	cur := Level(c.level.Load())
	switch {
	case desired > cur:
		c.setLocked(cur, desired, now)
	case desired < cur:
		if now.Sub(c.lastChange) >= dwell && fill < exitOf(cur) && !badGoodput {
			c.setLocked(cur, cur-1, now)
		}
	}
	return Level(c.level.Load())
}

// exitOf is the hysteresis threshold fill must fall under before the
// given level may step down.
func exitOf(l Level) float64 {
	if l == BrownedOut {
		return brownoutExit
	}
	return pressureExit
}

func (c *Controller) setLocked(from, to Level, now time.Time) {
	c.level.Store(int32(to))
	c.lastChange = now
	if c.onChange != nil {
		c.onChange(from, to)
	}
}
