package romserver

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
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
	img := s.addCodec("img", c)

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
	waitCond(t, "B to join A's flight", func() bool { return s.cache.Stats().Deduped == 1 })

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
	if data, ok := s.cache.Peek(img.key(5)); !ok || !bytes.Equal(data, stubBlock(5)) {
		t.Fatal("block 5 not cached after B's load")
	}
}

// TestFlightBoundaryBulkRun pins where the demand singleflight ends. A
// demand read leads block 5's flight and is held in its decode while a
// RangeView over blocks 4..6 runs. The range does not join the flight:
// it decodes block 5 itself and leaves Deduped alone. A second demand
// read of block 5 does join it (Deduped +1), and every read gets the
// right bytes. The view stays open until then, so its insert at Close
// cannot turn the second read into a hit.
func TestFlightBoundaryBulkRun(t *testing.T) {
	gate, held := make(chan struct{}), make(chan struct{})
	var led atomic.Bool
	c := &stubCodec{blocks: 8}
	c.decode = func(i int) ([]byte, error) {
		if i == 5 && led.CompareAndSwap(false, true) {
			close(held)
			<-gate
		}
		return stubBlock(i), nil
	}
	s := New(Options{Workers: 3, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", c)

	type result struct {
		data []byte
		hit  bool
		err  error
	}
	demand := func() <-chan result {
		ch := make(chan result, 1)
		go func() {
			data, hit, err := s.BlockContext(context.Background(), "img", 5)
			ch <- result{data, hit, err}
		}()
		return ch
	}
	leader := demand()
	<-held
	deduped := s.cache.Stats().Deduped

	v, err := s.RangeView(context.Background(), "img", 4, 6)
	if err != nil {
		t.Fatalf("range beside the flight: %v", err)
	}
	want := append(append(stubBlock(4), stubBlock(5)...), stubBlock(6)...)
	if got := v.AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("range [4,6] = %v, want %v", got, want)
	}
	if st := v.Stats(); st.DecodedBlocks != 3 || st.CachedBlocks != 0 {
		t.Fatalf("range stats %+v, want 3 blocks decoded and none cached", st)
	}
	if n := c.calls.Load(); n != 4 {
		t.Fatalf("%d decodes, want the leader's and the range's 3", n)
	}
	if got := s.cache.Stats().Deduped; got != deduped {
		t.Fatalf("the range moved Deduped %d -> %d", deduped, got)
	}

	joiner := demand()
	waitCond(t, "the second demand read to join the flight", func() bool { return s.cache.Stats().Deduped == deduped+1 })
	close(gate)
	for name, ch := range map[string]<-chan result{"leader": leader, "joiner": joiner} {
		if r := <-ch; r.err != nil || r.hit || !bytes.Equal(r.data, stubBlock(5)) {
			t.Fatalf("%s: block 5 = %v, hit=%v, err=%v", name, r.data, r.hit, r.err)
		}
	}
	v.Close()
	if n := c.calls.Load(); n != 4 {
		t.Fatalf("%d decodes, want the flight's one shared by both demand reads", n)
	}
	if got := s.cache.Stats().Deduped; got != deduped+1 {
		t.Fatalf("Deduped moved %d -> %d, want one joiner", deduped, got)
	}
}
