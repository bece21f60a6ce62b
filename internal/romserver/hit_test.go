package romserver

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codecomp/internal/overload"
)

// gatedCodec is a stubCodec whose every decode announces itself on
// started and then waits for one token on gate, so a test can hold the
// pool's only worker and know, without polling, that it is held.
type gatedCodec struct {
	*stubCodec
	started chan int
}

// newGatedCodec sizes both channels to one send per block: the tests
// decode each block of a gated image at most once.
func newGatedCodec(blocks int) *gatedCodec {
	c := &gatedCodec{
		stubCodec: &stubCodec{blocks: blocks, gate: make(chan struct{}, blocks)},
		started:   make(chan int, blocks),
	}
	c.decode = func(i int) ([]byte, error) {
		c.started <- i
		<-c.gate
		return stubBlock(i), nil
	}
	return c
}

// holdWorker starts a demand read of block b of the gated image "blocker"
// and returns once the pool's only worker is inside its decode. Sending
// one token on c.gate lets the decode finish; the read's error arrives
// on the returned channel.
func holdWorker(t *testing.T, s *Server, c *gatedCodec, b int) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.BlockContext(context.Background(), "blocker", b)
		done <- err
	}()
	if got := <-c.started; got != b {
		t.Fatalf("worker decoding blocker block %d, want %d", got, b)
	}
	return done
}

// queueWaits is the romserver_queue_wait_seconds sample count: one per
// read's ticket a worker picked up.
func (s *Server) queueWaits() int64 { return s.met.queueWait.Snapshot().Count }

// TestCallerHitBypassesPool holds the only worker on a gated decode and
// fills the queue behind it. A cached block must still be served, on the
// caller, while an uncached one is rejected for the full queue.
func TestCallerHitBypassesPool(t *testing.T) {
	blocker := newGatedCodec(4)
	s := New(Options{
		Workers: 1, QueueDepth: 2, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1,
		// The evaluator never ticks, so the level stays Healthy with the
		// queue full and the uncached read meets the queue-full gate.
		Overload: &overload.Config{}, noEvaluator: true,
	})
	defer s.Close()
	s.addCodec("blocker", blocker.stubCodec)
	img := s.addCodec("img", &stubCodec{blocks: 8})
	if _, hit, err := s.BlockContext(context.Background(), "img", 3); err != nil || hit {
		t.Fatalf("warm read: hit=%v err=%v", hit, err)
	}

	done := holdWorker(t, s, blocker, 0)
	// Fill the queue behind it with prefetch tickets.
	for b := 1; b <= cap(s.tasks); b++ {
		s.tasks <- task{img: img, block: b}
	}
	waits := s.queueWaits()

	data, hit, err := s.BlockContext(context.Background(), "img", 3)
	if err != nil || !hit || !bytes.Equal(data, []byte{3, 0}) {
		t.Fatalf("cached read behind a full queue = %v, hit=%v, err=%v", data, hit, err)
	}
	var rej *overload.RejectError
	if _, _, err := s.BlockContext(context.Background(), "img", 5); !errors.As(err, &rej) || rej.Reason != overload.ReasonQueueFull {
		t.Fatalf("uncached read behind a full queue: err = %v, want queue-full reject", err)
	}
	if n := s.met.admissionQueueFull.Value(); n != 1 {
		t.Fatalf("queue-full rejects = %d, want 1", n)
	}
	if n := s.queueWaits(); n != waits {
		t.Fatalf("queue-wait samples moved %d -> %d with the worker held", waits, n)
	}

	blocker.gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("held read: %v", err)
	}
}

// TestCallerHitAccounting replays a seeded mix of hits, misses and fills
// that race the caller's look against a reference model. Each demand
// read counts exactly one hit or one miss, a demand hit on a prefetched
// block counts one prefetch hit the first time only, and the queue-wait
// histogram grows only for reads that missed on the caller.
func TestCallerHitAccounting(t *testing.T) {
	const blocks = 64
	blocker := newGatedCodec(blocks)
	s := New(Options{
		Workers: 1, QueueDepth: 8, CacheBlocks: 1024, PrefetchDepth: -1,
		TraceBuffer: -1, ReverifyInterval: -1,
	})
	defer s.Close()
	s.addCodec("blocker", blocker.stubCodec)
	img := s.addCodec("img", &stubCodec{blocks: blocks})

	var (
		cached, prefetched        = map[int]bool{}, map[int]bool{}
		reads, prefetchLoads      int64
		wantHits, wantPrefetchHit int64
		wantWaits                 int64
		held                      int // blocker blocks used so far
	)
	read := func(b int) {
		t.Helper()
		wantHit := cached[b]
		data, hit, err := s.BlockContext(context.Background(), "img", b)
		reads++
		if err != nil || hit != wantHit || !bytes.Equal(data, []byte{byte(b), 0}) {
			t.Fatalf("read %d: hit=%v (want %v), data=%v, err=%v", b, hit, wantHit, data, err)
		}
		if hit {
			wantHits++
			if prefetched[b] {
				wantPrefetchHit++
				delete(prefetched, b)
			}
		} else {
			wantWaits++
		}
		cached[b] = true
	}
	// race queues prefetch tickets for the uncached blocks in warm behind
	// a held worker, then a demand read of warm[0]: the caller's look
	// misses and enqueues, the prefetch fills the block first, and the
	// worker's Get serves the read as a hit.
	race := func(warm []int) {
		t.Helper()
		done := holdWorker(t, s, blocker, held)
		held++
		reads++
		wantWaits++
		for _, b := range warm {
			s.tasks <- task{img: img, block: b}
			prefetchLoads++
			prefetched[b] = true
		}
		type res struct {
			data []byte
			hit  bool
			err  error
		}
		got := make(chan res, 1)
		go func() {
			data, hit, err := s.BlockContext(context.Background(), "img", warm[0])
			got <- res{data, hit, err}
		}()
		waitCond(t, "raced read to queue", func() bool { return len(s.tasks) == len(warm)+1 })
		blocker.gate <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("held read: %v", err)
		}
		r := <-got
		b := warm[0]
		if r.err != nil || !r.hit || !bytes.Equal(r.data, []byte{byte(b), 0}) {
			t.Fatalf("raced read %d = %v, hit=%v, err=%v; want a worker-side hit", b, r.data, r.hit, r.err)
		}
		reads++
		wantHits++
		wantPrefetchHit++
		delete(prefetched, b)
		wantWaits++
		for _, w := range warm {
			cached[w] = true
		}
	}

	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 400; op++ {
		if rng.Intn(8) == 0 && held < blocks {
			var cold []int
			for b := 0; b < blocks; b++ {
				if !cached[b] {
					cold = append(cold, b)
				}
			}
			rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
			if len(cold) > 0 {
				race(cold[:min(2, len(cold))])
				continue
			}
		}
		read(rng.Intn(blocks))
	}

	st := s.cache.Stats()
	if st.Hits+st.Misses != reads+prefetchLoads {
		t.Fatalf("hits %d + misses %d != %d demand reads + %d prefetch loads", st.Hits, st.Misses, reads, prefetchLoads)
	}
	if st.Hits != wantHits || st.PrefetchHits != wantPrefetchHit {
		t.Fatalf("hits %d, prefetch hits %d; model says %d, %d", st.Hits, st.PrefetchHits, wantHits, wantPrefetchHit)
	}
	if st.Deduped != 0 {
		t.Fatalf("deduped = %d in a sequential mix", st.Deduped)
	}
	if n := s.queueWaits(); n != wantWaits {
		t.Fatalf("queue-wait samples = %d, want %d (one per read that missed on the caller)", n, wantWaits)
	}
	if wantPrefetchHit == 0 || wantHits == 0 || held == 0 {
		t.Fatalf("mix too thin: %d hits, %d prefetch hits, %d races", wantHits, wantPrefetchHit, held)
	}
}

// TestCallerHitOverloadLevels pins the overload rule for hits at every
// level: with an admission estimate beyond the request's deadline, a
// cached block is still served, an uncached one is rejected exactly as
// an admitted miss would be, and hits leave the retry budget, the goodput
// window, the wait estimators and the queue-wait histogram untouched.
func TestCallerHitOverloadLevels(t *testing.T) {
	stub := &stubCodec{blocks: 16}
	s := New(Options{
		Workers: 1, QueueDepth: 8, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1,
		// The evaluator never ticks: the level moves only when the test
		// evaluates, and the recent-wait signal stays where it sets it.
		Overload: &overload.Config{}, noEvaluator: true,
	})
	defer s.Close()
	s.addCodec("img", stub)
	// Block 9 is hot, so browned out it passes the brownout gate and
	// meets the deadline gate; block 10 is cold and is shed.
	if _, err := s.TrainFrom("img", []int{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, _, err := s.BlockContext(context.Background(), "img", b); err != nil {
			t.Fatal(err)
		}
	}
	o := s.ovl
	for o.bud.Allow() {
		// Drain the retry budget so a deposit would show.
	}

	for _, tc := range []struct {
		fill  float64
		level overload.Level
	}{{0, overload.Healthy}, {0.6, overload.Pressured}, {1, overload.BrownedOut}} {
		if got := o.ctl.Evaluate(tc.fill); got != tc.level {
			t.Fatalf("Evaluate(%v) = %v, want %v", tc.fill, got, tc.level)
		}
		o.adm.SetRecentWait(0)
		est := o.adm.EstimateWait(1000)
		tokens := o.bud.Tokens()
		_, outcomes := o.ctl.Goodput()
		waits := s.queueWaits()
		o.adm.SetRecentWait(time.Second)

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		for b := 0; b < 3; b++ {
			data, hit, err := s.BlockContext(ctx, "img", b)
			if err != nil || !hit || !bytes.Equal(data, []byte{byte(b), 0}) {
				t.Fatalf("%v: cached block %d = %v, hit=%v, err=%v", tc.level, b, data, hit, err)
			}
		}
		wantHot, wantCold := overload.ReasonDeadline, overload.ReasonDeadline
		if tc.level == overload.BrownedOut {
			wantCold = overload.ReasonBrownout
		}
		for b, want := range map[int]overload.Reason{9: wantHot, 10: wantCold} {
			var rej *overload.RejectError
			if _, _, err := s.BlockContext(ctx, "img", b); !errors.As(err, &rej) || rej.Reason != want {
				t.Fatalf("%v: uncached block %d err = %v, want %s reject", tc.level, b, err, want)
			}
		}
		cancel()

		o.adm.SetRecentWait(0)
		if got := o.adm.EstimateWait(1000); got != est {
			t.Fatalf("%v: hits moved the wait estimate %v -> %v", tc.level, est, got)
		}
		if got := o.bud.Tokens(); got != tokens {
			t.Fatalf("%v: hits moved the retry budget %v -> %v", tc.level, tokens, got)
		}
		if _, got := o.ctl.Goodput(); got != outcomes {
			t.Fatalf("%v: hits reported outcomes (%d -> %d)", tc.level, outcomes, got)
		}
		if got := s.queueWaits(); got != waits {
			t.Fatalf("%v: hits fed the queue-wait histogram (%d -> %d)", tc.level, waits, got)
		}
	}
	if n := stub.calls.Load(); n != 3 {
		t.Fatalf("%d decodes, want the 3 warm-up misses only", n)
	}
	// An admitted miss still funds the budget and reports its outcome.
	tokens := o.bud.Tokens()
	_, outcomes := o.ctl.Goodput()
	if _, _, err := s.BlockContext(context.Background(), "img", 9); err != nil {
		t.Fatalf("hot miss while browned out: %v", err)
	}
	if got := o.bud.Tokens(); got <= tokens {
		t.Fatalf("admitted miss left the retry budget at %v", got)
	}
	if _, got := o.ctl.Goodput(); got != outcomes+1 {
		t.Fatalf("admitted miss reported %d outcomes, want 1", got-outcomes)
	}

	// So does a bulk read that misses, and its run's service time feeds
	// the queueing model: each block decodes in at least a millisecond,
	// so one run lifts the estimate for 1000 queued tickets from about
	// nothing to at least 1000 × 0.2 (the EWMA weight) × 1 ms. Training
	// the blocks makes them hot, which the browned-out gate admits.
	if _, err := s.TrainFrom("img", []int{11, 12, 13, 11, 12, 13}); err != nil {
		t.Fatal(err)
	}
	stub.decode = func(i int) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return stubBlock(i), nil
	}
	bulk := []struct {
		name   string
		blocks []int
		read   func() (*View, error)
	}{
		{"RangeView", []int{11, 12}, func() (*View, error) { return s.RangeView(context.Background(), "img", 11, 12) }},
		{"ReadAtContext", []int{13}, func() (*View, error) { return s.ReadAtContext(context.Background(), "img", 2*13, 2) }},
	}
	for _, tc := range bulk {
		o.adm.SetRecentWait(0)
		for i := 0; i < 200; i++ {
			o.adm.ObserveService(0)
			o.adm.ObserveWait(0)
		}
		tokens := o.bud.Tokens()
		_, outcomes := o.ctl.Goodput()
		v, err := tc.read()
		if err != nil {
			t.Fatalf("%s miss while browned out: %v", tc.name, err)
		}
		var want []byte
		for _, b := range tc.blocks {
			want = append(want, stubBlock(b)...)
		}
		got := v.AppendTo(nil)
		decoded := v.Stats().DecodedBlocks
		v.Close()
		if !bytes.Equal(got, want) || decoded != len(tc.blocks) {
			t.Fatalf("%s = %v (%d decoded), want %v decoded", tc.name, got, decoded, want)
		}
		if got := o.bud.Tokens(); got <= tokens {
			t.Fatalf("admitted %s left the retry budget at %v", tc.name, got)
		}
		if _, got := o.ctl.Goodput(); got != outcomes+1 {
			t.Fatalf("admitted %s reported %d outcomes, want 1", tc.name, got-outcomes)
		}
		if est := o.adm.EstimateWait(1000); est < 200*time.Millisecond {
			t.Fatalf("%s run left the wait estimate for 1000 tickets at %v: its service time was not observed", tc.name, est)
		}
	}
}

// TestCallerHitRaces runs hits concurrently with deregistration,
// same-name replacement and tier migration. Every successful read must
// be the block of the registration it looked up (the two registrations
// hold different texts of different lengths), and once Close returns
// every read reports ErrClosed.
func TestCallerHitRaces(t *testing.T) {
	_, text := testText(t)
	alt := make([]byte, len(text)-64)
	for i := range alt {
		alt[i] = text[i] ^ 0xa5
	}
	texts := map[int][]byte{len(text): text, len(alt): alt}
	images := [][]byte{marshalSAMC(t, text), marshalSAMC(t, alt)}

	s := New(Options{CacheBlocks: 256, ReverifyInterval: -1, Tiering: &TieringOptions{Interval: -1}})
	defer s.Close()
	if _, err := s.AddImage("prog", images[0]); err != nil {
		t.Fatal(err)
	}
	tinfo, err := s.AddImage("tiered", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}

	var (
		closed atomic.Bool
		served atomic.Int64
		wg     sync.WaitGroup
	)
	check := func(name string, bs, b int) {
		img, err := s.lookup(name)
		if err != nil {
			if closed.Load() && !errors.Is(err, ErrClosed) {
				t.Errorf("%s lookup after Close: %v", name, err)
			}
			return
		}
		if b >= img.blocks {
			return
		}
		after := closed.Load()
		data, _, err := s.fetchCtx(context.Background(), img, b)
		switch {
		case err == nil:
			size := int(img.offsets[img.blocks])
			want := texts[size][b*bs : min((b+1)*bs, size)]
			if !bytes.Equal(data, want) {
				t.Errorf("%s block %d: bytes of another registration", name, b)
			}
			served.Add(1)
		case !errors.Is(err, ErrClosed):
			t.Errorf("%s block %d: %v", name, b, err)
		}
		if after {
			if _, _, err := s.BlockContext(context.Background(), name, b); !errors.Is(err, ErrClosed) {
				t.Errorf("%s Block after Close: %v", name, err)
			}
		}
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				// A small working set keeps most reads hits.
				b := (g*5 + it) % 16
				check("prog", 32, b)
				check("tiered", testTierSpec.BlockSize, b)
			}
		}(g)
	}

	for round := 0; round < 6; round++ {
		if err := s.RemoveImage("prog"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.AddImage("prog", images[(round+i)%2]); err != nil {
				t.Fatal(err)
			}
		}
		trace := skewedTrace(tinfo.Blocks, 1+round%2, 4000)
		if round%2 == 1 {
			trace = trace[:0]
			for b := 0; b < tinfo.Blocks; b++ {
				trace = append(trace, b)
			}
		}
		if _, err := s.TrainFrom("tiered", trace); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recompress("tiered"); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	closed.Store(true)
	for g := 0; g < 4; g++ {
		check("prog", 32, g)
	}
	halt()
	if served.Load() == 0 {
		t.Fatal("no read was served")
	}
}

// BenchmarkRomserverHit measures a demand hit through BlockContext under
// codecompd's serving defaults: overload on, eight workers, trace
// recording on. The hit is answered on the calling goroutine, so
// cmd/bench gates it at 0 allocs/op and at most a tenth of
// BenchmarkRomserverMiss's ns/op.
func BenchmarkRomserverHit(b *testing.B) {
	_, text := testText(b)
	s := New(Options{Workers: 8, ReverifyInterval: -1, Overload: &overload.Config{}})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(b, text)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	data, _, err := s.BlockContext(ctx, "prog", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := s.BlockContext(ctx, "prog", 1)
		if err != nil || !hit {
			b.Fatalf("read %d: hit=%v err=%v", i, hit, err)
		}
	}
}
