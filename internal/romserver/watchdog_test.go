package romserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wedgeTimeout is the load deadline of the wedged-codec tests.
const wedgeTimeout = 30 * time.Millisecond

// wedgeServer is a one-worker server holding a wedged image and a
// healthy one, with every background loop off so the only goroutines
// are the pool's.
func wedgeServer(t *testing.T) *Server {
	t.Helper()
	wedged := &stubCodec{blocks: 4, gate: make(chan struct{})}
	t.Cleanup(func() { close(wedged.gate) })
	s := New(Options{
		Workers:          1,
		PrefetchDepth:    -1,
		TraceBuffer:      -1,
		LoadAttempts:     3, // a timed-out ticket must still time out once
		LoadTimeout:      wedgeTimeout,
		ReverifyInterval: -1,
	})
	s.addCodec("wedged", wedged)
	s.addCodec("good", &stubCodec{blocks: 4})
	return s
}

// TestWedgeEveryPath drives a wedged codec through every path that
// decodes — demand, batched range, sub-block tail, streamed text and
// background re-verify — and checks the watchdog
// contract on each: the call returns its timeout within a bound, every
// wedged ticket is answered exactly once and not retried, the
// one-worker pool keeps serving a healthy image, at most one goroutine
// stays behind per wedged ticket, and Close does not wait on it.
func TestWedgeEveryPath(t *testing.T) {
	cases := []struct {
		name string
		// tickets is how many tickets the call wedges.
		tickets int
		// background marks a path with no caller to see the error; its
		// timeouts only show in the counters.
		background bool
		call       func(t *testing.T, s *Server) error
	}{
		{"demand", 1, false, func(t *testing.T, s *Server) error {
			_, _, err := s.BlockContext(context.Background(), "wedged", 1)
			return err
		}},
		{"range", 1, false, func(t *testing.T, s *Server) error {
			v, err := s.RangeView(context.Background(), "wedged", 0, 3)
			if err == nil {
				v.Close()
			}
			return err
		}},
		{"subblock", 1, false, func(t *testing.T, s *Server) error {
			// Read one byte of block 2's two: a mid-block tail that
			// takes the partial decode path.
			v, err := s.ReadAtContext(context.Background(), "wedged", 4, 1)
			if err == nil {
				v.Close()
			}
			if n := s.met.decompressions.Value(); n != 0 {
				t.Errorf("full decode attempted (%d); want the wedge in the partial tail decode", n)
			}
			return err
		}},
		{"text", 1, false, func(t *testing.T, s *Server) error {
			n, err := s.WriteText("wedged", io.Discard)
			if n != 0 {
				t.Errorf("WriteText wrote %d bytes before the wedge", n)
			}
			return err
		}},
		{"reverify", reverifyBatch, true, func(t *testing.T, s *Server) error {
			// Mark a block bad so the image is unhealthy, then run one
			// pass: every target wedges and is answered by the watchdog.
			img, _ := s.lookup("wedged")
			s.recordHealth(img, 0, true)
			s.reverifyPass()
			if n := metric(t, s, "romserver_reverifies_total"); n != reverifyBatch {
				t.Errorf("reverifies = %d, want %d", n, reverifyBatch)
			}
			if img.health.State() == Healthy {
				t.Error("wedged image re-verified healthy")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := wedgeServer(t)
			base := runtime.NumGoroutine()

			start := time.Now()
			err := tc.call(t, s)
			if tc.background && err != nil || !tc.background && !errors.Is(err, ErrDecompressTimeout) {
				t.Fatalf("err = %v, want ErrDecompressTimeout", err)
			}
			bound := time.Duration(tc.tickets)*wedgeTimeout + 2*time.Second
			if d := time.Since(start); d > bound {
				t.Fatalf("timeout took %v, bound %v", d, bound)
			}
			if got := metric(t, s, "romserver_decode_timeouts_total"); got != int64(tc.tickets) {
				t.Errorf("timeouts = %d, want %d (one per ticket, no retries)", got, tc.tickets)
			}
			if got := metric(t, s, "romserver_retries_total"); got != 0 {
				t.Errorf("timed-out load retried %d times", got)
			}

			// The replacement worker keeps the one-worker pool serving.
			data, _, err := s.BlockContext(context.Background(), "good", 3)
			if err != nil || !bytes.Equal(data, []byte{3, 0}) {
				t.Fatalf("healthy image after the wedge: %v, %v", data, err)
			}
			waitCond(t, "inflight gauge to settle", func() bool { return s.inflight.Load() == 0 })
			waitCond(t, "goroutines to settle", func() bool {
				return runtime.NumGoroutine() <= base+tc.tickets
			})

			closed := time.Now()
			s.Close()
			if d := time.Since(closed); d > time.Second {
				t.Fatalf("Close waited %v on a wedged decoder", d)
			}
		})
	}
}

// TestWedgeSingleflightWaiter: a demand read that joins another
// worker's wedged decode is covered by its own worker's watchdog, not
// left waiting on the flight.
func TestWedgeSingleflightWaiter(t *testing.T) {
	wedged := &stubCodec{blocks: 4, gate: make(chan struct{})}
	defer close(wedged.gate)
	s := New(Options{Workers: 2, PrefetchDepth: -1, TraceBuffer: -1, LoadTimeout: wedgeTimeout, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("wedged", wedged)
	s.addCodec("good", &stubCodec{blocks: 4})

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := s.BlockContext(context.Background(), "wedged", 0)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrDecompressTimeout) {
				t.Fatalf("err = %v, want ErrDecompressTimeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a wedged read never returned")
		}
	}
	// Both workers were replaced.
	for b := 0; b < 4; b++ {
		if _, _, err := s.BlockContext(context.Background(), "good", b); err != nil {
			t.Fatalf("healthy image after the wedge: %v", err)
		}
	}
}

// TestWatchdogRequestDeadline: when the request deadline is tighter
// than the load timeout, the watchdog fires at the request deadline,
// the caller sees the context error, and the pool is restored.
func TestWatchdogRequestDeadline(t *testing.T) {
	wedged := &stubCodec{blocks: 4, gate: make(chan struct{})}
	defer close(wedged.gate)
	s := New(Options{Workers: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("wedged", wedged)
	s.addCodec("good", &stubCodec{blocks: 4})

	ctx, cancel := context.WithTimeout(context.Background(), wedgeTimeout)
	defer cancel()
	start := time.Now()
	_, _, err := s.BlockContext(ctx, "wedged", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("request deadline took %v (load timeout is %v)", d, s.opts.LoadTimeout)
	}
	waitCond(t, "watchdog to fire", func() bool { return metric(t, s, "romserver_decode_timeouts_total") == 1 })
	if _, _, err := s.BlockContext(context.Background(), "good", 1); err != nil {
		t.Fatalf("healthy image after the wedge: %v", err)
	}
}

// newJitterCodec returns a stub that decodes every fourth block after a
// random delay in [0.7, 1.1) load timeouts, so the watchdog and the
// worker race to answer the same tickets; the other blocks decode at
// once, which keeps the image's failure rate far below quarantine.
func newJitterCodec(blocks int, seed int64) *stubCodec {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return &stubCodec{blocks: blocks, decode: func(i int) ([]byte, error) {
		if i%4 == 1 {
			mu.Lock()
			d := wedgeTimeout*7/10 + time.Duration(rng.Int63n(int64(wedgeTimeout*4/10)))
			mu.Unlock()
			time.Sleep(d)
		}
		return stubBlock(i), nil
	}}
}

// TestWatchdogRacesReply hammers decodes that finish right around their
// deadline. Whichever side wins, each ticket is answered exactly once:
// every read gets either its own block's bytes or a timeout — a second
// answer would surface as another block's bytes in a recycled reply
// channel — and the pool, its inflight gauge and its goroutines all
// return to their idle state.
func TestWatchdogRacesReply(t *testing.T) {
	jc := newJitterCodec(64, 1)
	s := New(Options{
		Workers: 2, CacheBlocks: 4, CacheShards: 1, PrefetchDepth: -1, TraceBuffer: -1,
		LoadAttempts: 1, LoadTimeout: wedgeTimeout, ReverifyInterval: -1,
	})
	defer s.Close()
	s.addCodec("jitter", jc)
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	var mu sync.Mutex
	served, timedOut := 0, 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				b := (g*16 + i) % jc.blocks
				var data []byte
				var err error
				if i%3 == 2 {
					var v *View
					if v, err = s.RangeView(context.Background(), "jitter", b, b); err == nil {
						data = v.AppendTo(nil)
						v.Close()
					}
				} else {
					data, _, err = s.BlockContext(context.Background(), "jitter", b)
				}
				mu.Lock()
				switch {
				case err == nil && bytes.Equal(data, []byte{byte(b), byte(b >> 8)}):
					served++
				case errors.Is(err, ErrDecompressTimeout):
					timedOut++
				default:
					t.Errorf("block %d: %v, %v", b, data, err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	t.Logf("served %d, timed out %d", served, timedOut)
	waitCond(t, "inflight gauge to settle", func() bool { return s.inflight.Load() == 0 })
	// Retired workers exit once their late decode returns.
	waitCond(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= base })
	if _, _, err := s.BlockContext(context.Background(), "jitter", 0); err != nil && !errors.Is(err, ErrDecompressTimeout) {
		t.Fatalf("pool broken after the race: %v", err)
	}
}
