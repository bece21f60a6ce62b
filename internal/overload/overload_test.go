package overload

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRejectErrorRendersReason(t *testing.T) {
	err := error(&RejectError{Reason: ReasonBrownout, RetryAfter: 2 * time.Second})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonBrownout {
		t.Fatalf("errors.As failed on %v", err)
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty error string")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{Healthy: "healthy", Pressured: "pressured", BrownedOut: "browned_out"} {
		if got := l.String(); got != want {
			t.Fatalf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
	if got := Level(7).String(); got != "Level(7)" {
		t.Fatalf("unknown level string = %q", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	b := NewRetryBudget(0, 0)
	if got := b.Tokens(); got != 10 {
		t.Fatalf("default retry budget starts with %v tokens, want a full bucket of 10", got)
	}
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatalf("default retry budget refused retry %d of its 10-token burst", i+1)
		}
	}
	b.OnRequest()
	if got := b.Tokens(); got != 0.1 {
		t.Fatalf("one request deposited %v tokens, want the default ratio 0.1", got)
	}
	if pressureExit >= pressureEnter || brownoutExit >= brownoutEnter {
		t.Fatalf("exit thresholds must sit below enter: pressure %v/%v, brownout %v/%v",
			pressureEnter, pressureExit, brownoutEnter, brownoutExit)
	}
	if pressureEnter >= brownoutEnter {
		t.Fatalf("pressure enter %v must precede brownout enter %v", pressureEnter, brownoutEnter)
	}
	if enter := 0.9; brownoutExit != enter/2*1.1 {
		t.Fatalf("brownout exit %v, want the float64 value of 0.9/2*1.1", brownoutExit)
	}
	if c := NewController(Config{}); c.now == nil {
		t.Fatal("controller has no clock when Config.Now is unset")
	}
	if minObservations > goodputWindow {
		t.Fatalf("goodput needs %d outcomes but the window holds %d", minObservations, goodputWindow)
	}
	// evalInterval < dwell < staleAfter: romserver's evaluator ticks
	// several times per dwell (TestEvalIntervalBelowDwell holds its 25ms
	// under dwell), and a failed window holds the level for more than
	// one dwell before it goes stale.
	if dwell <= 0 || dwell >= staleAfter {
		t.Fatalf("dwell %v must be positive and below staleAfter %v", dwell, staleAfter)
	}
}

func TestRetryBudgetCapsAmplification(t *testing.T) {
	b := NewRetryBudget(0.1, 5)
	// Drain the initial burst.
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatalf("initial burst exhausted at %d", i)
		}
	}
	if b.Allow() {
		t.Fatal("allowed past empty bucket")
	}
	// 1000 requests deposit 100 tokens; no more than ~100 retries (plus
	// nothing left over) may be spent.
	retries := 0
	for i := 0; i < 1000; i++ {
		b.OnRequest()
		if b.Allow() { // every request tries to retry: worst case
			retries++
		}
	}
	if retries > 101 {
		t.Fatalf("budget leaked: %d retries from 1000 requests at ratio 0.1", retries)
	}
	if retries < 95 {
		t.Fatalf("budget too stingy: %d retries from 1000 requests at ratio 0.1", retries)
	}
}

func TestRetryBudgetBurstCap(t *testing.T) {
	b := NewRetryBudget(1, 3) // ratio 1: every request deposits a full token
	for i := 0; i < 100; i++ {
		b.OnRequest()
	}
	if got := b.Tokens(); got != 3 {
		t.Fatalf("tokens = %v, want capped at 3", got)
	}
}

func TestAdmissionModelLeadsOnDepth(t *testing.T) {
	a := NewAdmission(2)
	for i := 0; i < 50; i++ {
		a.ObserveService(10 * time.Millisecond)
	}
	// 8 queued tickets over 2 workers at 10ms each: ~40ms.
	est := a.EstimateWait(8)
	if est < 30*time.Millisecond || est > 60*time.Millisecond {
		t.Fatalf("estimate = %v, want ~40ms", est)
	}
	if got := a.EstimateWait(0); got != 0 {
		t.Fatalf("empty queue estimate = %v, want 0", got)
	}
}

func TestAdmissionRecentWaitCorrectsUpward(t *testing.T) {
	a := NewAdmission(4)
	a.ObserveService(time.Millisecond) // hit-heavy average
	a.SetRecentWait(80 * time.Millisecond)
	if est := a.EstimateWait(1); est < 80*time.Millisecond {
		t.Fatalf("estimate = %v ignores recent-wait signal", est)
	}
	a.SetRecentWait(0)
	if est := a.EstimateWait(0); est != 0 {
		t.Fatalf("estimate = %v after clearing recent wait", est)
	}
}

// fakeClock drives the controller deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func newTestController() (*Controller, *fakeClock) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	return NewController(Config{Now: clk.Now}), clk
}

func TestControllerEscalatesImmediately(t *testing.T) {
	c, _ := newTestController()
	if got := c.Evaluate(0.1); got != Healthy {
		t.Fatalf("level = %v at fill 0.1", got)
	}
	if got := c.Evaluate(0.6); got != Pressured {
		t.Fatalf("level = %v at fill 0.6, want pressured", got)
	}
	if got := c.Evaluate(0.95); got != BrownedOut {
		t.Fatalf("level = %v at fill 0.95, want browned_out", got)
	}
	// Straight to brownout from healthy when the queue is already full.
	c2, _ := newTestController()
	if got := c2.Evaluate(1.0); got != BrownedOut {
		t.Fatalf("level = %v at fill 1.0, want browned_out", got)
	}
}

func TestControllerRecoversOneLevelPerDwell(t *testing.T) {
	c, clk := newTestController()
	transitions := 0
	c.OnChange(func(Level, Level) { transitions++ })
	c.Evaluate(1.0)
	if c.Level() != BrownedOut {
		t.Fatal("setup: not browned out")
	}
	// Queue empty, but dwell not elapsed: stays put.
	if got := c.Evaluate(0); got != BrownedOut {
		t.Fatalf("de-escalated before dwell: %v", got)
	}
	clk.Advance(dwell - time.Nanosecond)
	if got := c.Evaluate(0); got != BrownedOut {
		t.Fatalf("de-escalated a nanosecond before dwell: %v", got)
	}
	clk.Advance(time.Nanosecond)
	if got := c.Evaluate(0); got != Pressured {
		t.Fatalf("level = %v after dwell, want pressured (one step)", got)
	}
	// Second step needs its own dwell.
	if got := c.Evaluate(0); got != Pressured {
		t.Fatalf("double-stepped without dwell: %v", got)
	}
	clk.Advance(dwell)
	if got := c.Evaluate(0); got != Healthy {
		t.Fatalf("level = %v, want healthy", got)
	}
	if transitions != 3 {
		t.Fatalf("transitions = %d, want 3 (one jump up, two steps down)", transitions)
	}
}

func TestControllerHysteresisHoldsLevel(t *testing.T) {
	c, clk := newTestController()
	c.Evaluate(0.6) // pressured
	clk.Advance(time.Second)
	// Fill below enter (0.5) but above exit (0.25): hold.
	if got := c.Evaluate(0.4); got != Pressured {
		t.Fatalf("level = %v at fill 0.4, want held at pressured", got)
	}
	if got := c.Evaluate(0.2); got != Healthy {
		t.Fatalf("level = %v at fill 0.2 after dwell, want healthy", got)
	}
}

func TestControllerGoodputEscalation(t *testing.T) {
	c, clk := newTestController()
	for i := 0; i < minObservations-1; i++ {
		c.ReportOutcome(false)
	}
	if got := c.Evaluate(0.1); got != Healthy {
		t.Fatalf("level = %v on %d outcomes, want healthy until %d", got, minObservations-1, minObservations)
	}
	c.ReportOutcome(false)
	if got := c.Evaluate(0.1); got != Pressured {
		t.Fatalf("level = %v with collapsed goodput, want pressured", got)
	}
	// Collapsed goodput plus a pressured queue reads as brownout.
	if got := c.Evaluate(0.6); got != BrownedOut {
		t.Fatalf("level = %v with bad goodput at fill 0.6, want browned_out", got)
	}
	// The stale window ages out, releasing the level: held through
	// staleAfter without reports, one step down just past it.
	clk.Advance(staleAfter)
	if got := c.Evaluate(0); got != BrownedOut {
		t.Fatalf("level = %v at staleAfter, want held by the failed window", got)
	}
	clk.Advance(time.Nanosecond)
	if got := c.Evaluate(0); got != Pressured {
		t.Fatalf("level = %v after stale window + dwell, want one step down", got)
	}
	clk.Advance(2 * time.Second)
	if got := c.Evaluate(0); got != Healthy {
		t.Fatalf("level = %v, want healthy", got)
	}
	if g, n := c.Goodput(); n != 0 || g != 1 {
		t.Fatalf("goodput window not aged out: %v over %d", g, n)
	}
}

func TestControllerOutcomeRingWraps(t *testing.T) {
	c, _ := newTestController()
	for i := 0; i < goodputWindow; i++ {
		c.ReportOutcome(false)
	}
	if g, _ := c.Goodput(); g != 0 {
		t.Fatalf("goodput = %v, want 0", g)
	}
	for i := 0; i < goodputWindow; i++ {
		c.ReportOutcome(true)
	}
	if g, n := c.Goodput(); g != 1 || n != goodputWindow {
		t.Fatalf("goodput = %v over %d after ring wrap, want 1.0 over %d", g, n, goodputWindow)
	}
}

func TestControllerOnChange(t *testing.T) {
	c, clk := newTestController()
	type hop struct{ from, to Level }
	var hops []hop
	c.OnChange(func(from, to Level) { hops = append(hops, hop{from, to}) })
	c.Evaluate(1.0)
	clk.Advance(time.Second)
	c.Evaluate(0)
	want := []hop{{Healthy, BrownedOut}, {BrownedOut, Pressured}}
	if len(hops) != len(want) || hops[0] != want[0] || hops[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", hops, want)
	}
}

// TestOverloadRace hammers the admission estimator, retry budget and
// brownout controller from many goroutines under -race: concurrent
// observers, outcome reporters, level readers and a ticking evaluator
// whose clock steps an eighth of a dwell per tick, so the level both
// escalates and recovers.
func TestOverloadRace(t *testing.T) {
	adm := NewAdmission(4)
	bud := NewRetryBudget(0.1, 10)
	ctl, clk := newTestController()
	ctl.OnChange(func(from, to Level) { _ = from; _ = to })

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					adm.ObserveService(time.Duration(i%7) * time.Millisecond)
					adm.ObserveWait(time.Duration(i%3) * time.Millisecond)
				case 1:
					_ = adm.EstimateWait(i % 32)
					adm.SetRecentWait(time.Duration(i%11) * time.Millisecond)
				case 2:
					bud.OnRequest()
					_ = bud.Allow()
					_ = bud.Tokens()
				case 3:
					ctl.ReportOutcome(i%3 != 0)
					_, _ = ctl.Goodput()
				default:
					clk.Advance(dwell / 8)
					_ = ctl.Evaluate(float64(i%100) / 100)
					_ = ctl.Level()
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if l := ctl.Level(); l < Healthy || l > BrownedOut {
		t.Fatalf("level out of range after hammer: %v", l)
	}
}
