package romserver

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestFlightLeaderDeadline: read A, with a short deadline, leads the
// cache flight for block 5 and wedges in its decode; read B, with no
// deadline, joins that flight. A's deadline retires A's worker, then the
// decode returns. B must get the block: the flight ended with A's own
// deadline, not with a fault of the block, and B's context is live.
// Events are ordered by the gate and the server's counters.
func TestFlightLeaderDeadline(t *testing.T) {
	c := &stubCodec{blocks: 8, gate: make(chan struct{})}
	s := New(Options{
		Workers:          2,
		PrefetchDepth:    -1,
		TraceBuffer:      -1,
		LoadAttempts:     1,
		LoadTimeout:      time.Minute, // only A's deadline can retire a worker
		ReverifyInterval: -1,
	})
	defer s.Close()
	s.addCodec("img", c)

	ctxA, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errA := make(chan error, 1)
	go func() {
		_, _, err := s.BlockContext(ctxA, "img", 5)
		errA <- err
	}()
	waitCond(t, "A's decode to start", func() bool { return c.calls.Load() == 1 })

	type result struct {
		data []byte
		err  error
	}
	resB := make(chan result, 1)
	go func() {
		data, _, err := s.BlockContext(context.Background(), "img", 5)
		resB <- result{data, err}
	}()
	waitCond(t, "B to join A's flight", func() bool { return s.CacheStats().Deduped == 1 })

	if err := <-errA; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("A: err = %v, want its deadline", err)
	}
	waitCond(t, "the watchdog to retire A's worker", func() bool { return s.met.decodeTimeouts.Value() == 1 })
	close(c.gate)

	r := <-resB
	if r.err != nil {
		t.Fatalf("B, with a live context, failed with A's deadline: %v", r.err)
	}
	if !bytes.Equal(r.data, stubBlock(5)) {
		t.Fatalf("B: block 5 = %v", r.data)
	}
	if n := c.calls.Load(); n != 2 {
		t.Fatalf("%d decodes, want A's and B's own", n)
	}
	if data, ok, _ := s.CachedBlock("img", 5); !ok || !bytes.Equal(data, stubBlock(5)) {
		t.Fatal("block 5 not cached after B's load")
	}
}
