package romserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"codecomp/internal/overload"
)

// fakeClock is a brownout controller clock (overload.Config.Now) that
// moves only when a test advances it.
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

// TestEvalIntervalBelowDwell holds the evaluator's tick under the
// controller's dwell: a level entered on one tick survives the next, so
// recovery steps down one level per dwell, not one per tick.
func TestEvalIntervalBelowDwell(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctl := overload.NewController(overload.Config{Now: clk.Now})
	ctl.Evaluate(1)
	clk.Advance(evalInterval)
	if got := ctl.Evaluate(0); got != overload.BrownedOut {
		t.Fatalf("level = %v one %v tick after brownout: the tick outlasts the dwell", got, evalInterval)
	}
}

// waitCond polls until cond is true or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCanceledWhileQueuedNeverDecodes is the deadline-propagation
// regression test: a ticket whose caller cancels while it is still
// queued must be retired by the worker WITHOUT dispatching the decode —
// before this layer, a queued ticket always ran to completion even
// after its caller gave up.
func TestCanceledWhileQueuedNeverDecodes(t *testing.T) {
	blocker := &stubCodec{blocks: 4, gate: make(chan struct{})}
	victim := &stubCodec{blocks: 4}
	s := New(Options{Workers: 1, QueueDepth: 4, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("blocker", blocker)
	s.addCodec("victim", victim)

	// Pin the single worker on a decode that blocks on the gate.
	blockerDone := make(chan error, 1)
	go func() {
		_, _, err := s.BlockContext(context.Background(), "blocker", 0)
		blockerDone <- err
	}()
	waitCond(t, "blocker decode to start", func() bool { return blocker.calls.Load() == 1 })

	// Queue the victim read behind it, then cancel while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	victimDone := make(chan error, 1)
	go func() {
		_, _, err := s.BlockContext(ctx, "victim", 1)
		victimDone <- err
	}()
	waitCond(t, "victim ticket to queue", func() bool { return len(s.tasks) == 1 })
	cancel()

	// The caller unblocks at cancellation, not when the queue drains.
	select {
	case err := <-victimDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("victim err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled caller still blocked on a queued ticket")
	}
	if n := victim.calls.Load(); n != 0 {
		t.Fatalf("victim decoded %d times before worker reached it", n)
	}

	// Release the worker; it must retire the canceled ticket undecoded.
	close(blocker.gate)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker read failed: %v", err)
	}
	waitCond(t, "canceled ticket to be retired", func() bool { return s.met.queueExpired.Value() == 1 })
	if n := victim.calls.Load(); n != 0 {
		t.Fatalf("canceled ticket dispatched a decode (%d calls)", n)
	}

	// The block is still servable afterwards — nothing leaked.
	if data, _, err := s.BlockContext(context.Background(), "victim", 1); err != nil || len(data) == 0 {
		t.Fatalf("victim Block after cancel = %v, %v", data, err)
	}
}

// TestCanceledRangeWhileQueuedNeverDecodes is the bulk-path twin of
// TestCanceledWhileQueuedNeverDecodes, through ReadAtContext and
// RangeView: a read whose caller cancels while its miss run is still
// queued returns at cancellation, and the worker retires the run's
// ticket without decoding it. Blocks 1 and 2 are bytes [2,6).
func TestCanceledRangeWhileQueuedNeverDecodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(ctx context.Context, s *Server) (*View, error)
	}{
		{"ReadAtContext", func(ctx context.Context, s *Server) (*View, error) { return s.ReadAtContext(ctx, "victim", 2, 4) }},
		{"RangeView", func(ctx context.Context, s *Server) (*View, error) { return s.RangeView(ctx, "victim", 1, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocker := &stubCodec{blocks: 4, gate: make(chan struct{})}
			victim := &stubCodec{blocks: 4}
			s := New(Options{Workers: 1, QueueDepth: 4, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
			defer s.Close()
			s.addCodec("blocker", blocker)
			s.addCodec("victim", victim)

			// Pin the single worker on a decode that blocks on the gate.
			blockerDone := make(chan error, 1)
			go func() {
				_, _, err := s.BlockContext(context.Background(), "blocker", 0)
				blockerDone <- err
			}()
			waitCond(t, "blocker decode to start", func() bool { return blocker.calls.Load() == 1 })

			// Queue the victim's miss run behind it, then cancel while it waits.
			ctx, cancel := context.WithCancel(context.Background())
			victimDone := make(chan error, 1)
			go func() {
				v, err := tc.read(ctx, s)
				if err == nil {
					v.Close()
				}
				victimDone <- err
			}()
			waitCond(t, "victim ticket to queue", func() bool { return len(s.tasks) == 1 })
			cancel()

			// The caller unblocks at cancellation, not when the queue drains.
			select {
			case err := <-victimDone:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("victim err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("canceled caller still blocked on a queued range ticket")
			}

			// Release the worker; it must retire the canceled ticket undecoded.
			close(blocker.gate)
			if err := <-blockerDone; err != nil {
				t.Fatalf("blocker read failed: %v", err)
			}
			waitCond(t, "canceled ticket to be retired", func() bool { return s.met.queueExpired.Value() == 1 })
			if n := victim.calls.Load(); n != 0 {
				t.Fatalf("canceled range ticket dispatched %d decodes", n)
			}

			// The bytes are still servable afterwards — nothing leaked.
			v, err := tc.read(context.Background(), s)
			if err != nil {
				t.Fatalf("victim read after cancel: %v", err)
			}
			defer v.Close()
			if got := v.AppendTo(nil); !bytes.Equal(got, []byte{1, 0, 2, 0}) {
				t.Fatalf("victim read after cancel = %v", got)
			}
		})
	}
}

// TestReadAtContextPreCanceled: an already-expired context never
// dispatches a range ticket.
func TestReadAtContextPreCanceled(t *testing.T) {
	stub := &stubCodec{blocks: 4}
	s := New(Options{Workers: 1, PrefetchDepth: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", stub)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ReadAtContext(ctx, "img", 0, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := s.met.rangeDispatches.Value(); n != 0 {
		t.Fatalf("pre-canceled read dispatched %d tickets", n)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Fatalf("pre-canceled read decoded %d times", n)
	}
}

// TestBlockContextPreCanceled pins the cheap path: an already-expired
// context never records, enqueues or decodes anything.
func TestBlockContextPreCanceled(t *testing.T) {
	stub := &stubCodec{blocks: 4}
	s := New(Options{Workers: 1, PrefetchDepth: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", stub)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.BlockContext(ctx, "img", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Fatalf("pre-canceled read decoded %d times", n)
	}
}

// newSlowCodec returns a stub that decodes after a fixed delay, so
// queues actually build.
func newSlowCodec(blocks int, delay time.Duration) *stubCodec {
	return &stubCodec{blocks: blocks, decode: func(i int) ([]byte, error) {
		time.Sleep(delay)
		return stubBlock(i), nil
	}}
}

// TestOverloadAdmissionRejectsDoomedRequests drives a one-worker server
// with a slow codec until its queue wait estimate exceeds a tiny
// deadline, and checks admission turns such requests into
// *overload.RejectError instead of letting them time out in the queue.
func TestOverloadAdmissionRejectsDoomedRequests(t *testing.T) {
	slow := newSlowCodec(64, 5*time.Millisecond)
	s := New(Options{
		Workers: 1, QueueDepth: 8, CacheBlocks: 4, CacheShards: 1,
		PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1,
		Overload: &overload.Config{},
	})
	defer s.Close()
	s.addCodec("img", slow)

	// Warm the service-time EWMA with sequential cold misses.
	for i := 0; i < 8; i++ {
		if _, _, err := s.BlockContext(context.Background(), "img", i); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}

	// Saturate the pool from the background so the queue stays deep.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.BlockContext(context.Background(), "img", (g*13+i)%64) //nolint:errcheck — load generator
			}
		}(g)
	}

	// With ~5ms service times and a deep queue, a 1ms deadline must be
	// rejected up front once the estimator has signal.
	var rejected bool
	var rej *overload.RejectError
	for i := 0; i < 500 && !rejected; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _, err := s.BlockContext(ctx, "img", i%64)
		cancel()
		if errors.As(err, &rej) {
			rejected = true
		}
	}
	close(stop)
	wg.Wait()
	if !rejected {
		t.Fatal("no admission reject in 500 doomed requests")
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("reject carries RetryAfter %v, want >= 1s", rej.RetryAfter)
	}
	deadline := metric(t, s, "overload_admission_rejects_total", "reason", "deadline")
	if full := metric(t, s, "overload_admission_rejects_total", "reason", "queue_full"); deadline+full == 0 {
		t.Fatal("overload_admission_rejects_total counted no reject")
	}
}

// TestOverloadBrownoutServesHotShedsCold pins the brownout policy: a
// browned-out server keeps serving cached blocks and trained-hot
// blocks, and sheds cold misses with ReasonBrownout.
func TestOverloadBrownoutServesHotShedsCold(t *testing.T) {
	stub := &stubCodec{blocks: 64}
	s := New(Options{
		Workers: 1, QueueDepth: 8, CacheBlocks: 8, CacheShards: 1,
		PrefetchDepth: -1, TraceBuffer: 4096, ReverifyInterval: -1,
		// The evaluator never ticks: the level holds once entered.
		Overload: &overload.Config{}, noEvaluator: true,
	})
	defer s.Close()
	s.addCodec("img", stub)

	// Train a hot set: blocks 0..3 dominate the trace.
	var trace []int
	for i := 0; i < 100; i++ {
		trace = append(trace, i%4)
	}
	trace = append(trace, 40, 41)
	if _, err := s.TrainFrom("img", trace); err != nil {
		t.Fatal(err)
	}
	// Cache block 40 so brownout can serve it without a worker.
	if _, _, err := s.BlockContext(context.Background(), "img", 40); err != nil {
		t.Fatal(err)
	}

	// Force brownout via the controller (unit seam: the drill proves the
	// organic path).
	s.ovl.ctl.Evaluate(1.0)
	if lvl := s.OverloadLevel(); lvl != overload.BrownedOut {
		t.Fatalf("level = %v after full-queue evaluate", lvl)
	}

	// Hot block: decodes even browned out.
	if _, _, err := s.BlockContext(context.Background(), "img", 2); err != nil {
		t.Fatalf("hot block shed under brownout: %v", err)
	}
	// Cached block: served from cache.
	if _, hit, err := s.BlockContext(context.Background(), "img", 40); err != nil || !hit {
		t.Fatalf("cached block = hit=%v err=%v under brownout", hit, err)
	}
	// Cold miss: shed.
	var rej *overload.RejectError
	_, _, err := s.BlockContext(context.Background(), "img", 50)
	if !errors.As(err, &rej) || rej.Reason != overload.ReasonBrownout {
		t.Fatalf("cold miss err = %v, want brownout reject", err)
	}
	if s.met.brownoutShed.Value() == 0 {
		t.Fatal("brownout shed counter not incremented")
	}
}

// TestOverloadServerRace hammers a fully enabled overload server —
// admission, brownout transitions, retry budget, training, scrapes — from
// many goroutines; the -race CI pass gives this teeth. The controller's
// clock steps 50ms with every training round, so dwells pass between
// evaluator ticks and the level recovers as well as escalates.
func TestOverloadServerRace(t *testing.T) {
	slow := newSlowCodec(32, 200*time.Microsecond)
	clk := &fakeClock{now: time.Unix(0, 0)}
	s := New(Options{
		Workers: 2, QueueDepth: 4, CacheBlocks: 8, CacheShards: 1,
		PrefetchDepth: 2, TraceBuffer: 1024, ReverifyInterval: -1,
		Overload: &overload.Config{Now: clk.Now},
	})
	defer s.Close()
	s.addCodec("img", slow)
	for i := 0; i < 8; i++ {
		s.BlockContext(context.Background(), "img", i) //nolint:errcheck — warmup
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(stop) })
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
					s.BlockContext(ctx, "img", (g*7+i)%32) //nolint:errcheck — hammer
					cancel()
				case 1:
					s.BlockContext(context.Background(), "img", (g*11+i)%32) //nolint:errcheck — hammer
				case 2:
					s.Train("img") //nolint:errcheck — retrains the hot set concurrently
					clk.Advance(50 * time.Millisecond)
					s.Registry().WritePrometheus(io.Discard) //nolint:errcheck — scrapes concurrently
				default:
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() {
						s.BlockContext(ctx, "img", (g*3+i)%32) //nolint:errcheck — hammer
						close(done)
					}()
					cancel()
					<-done
				}
			}
		}(g)
	}
	wg.Wait()
	// The server still serves after the storm. Each 1ms poll steps the
	// clock 100ms, so a dwell and the outcome window's staleness pass
	// between evaluator ticks, and each tick may step the level down.
	waitCond(t, "level to settle", func() bool {
		clk.Advance(100 * time.Millisecond)
		return s.OverloadLevel() == overload.Healthy
	})
	if data, _, err := s.BlockContext(context.Background(), "img", 1); err != nil || len(data) == 0 {
		t.Fatalf("post-storm read = %v, %v", data, err)
	}
}
