package romserver

// Tests for the scan-resistant insert rule of View.Close
// (insertDecoded): a bulk read over more code than the cache holds
// keeps the blocks that filled the cache instead of cycling it, a block
// read twice within the reuse horizon still gets in, and the per-block
// marks stay race-clean across re-registration. Also the per-view
// ticket cap that keeps one fragmented read from filling the admission
// queue by itself.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"codecomp/internal/overload"
)

// readView reads n bytes at off through ReadAtContext, checks them
// against the stub's declared blocks and returns how the read was
// served.
func readView(t *testing.T, s *Server, name string, off, n int) RangeStats {
	t.Helper()
	v, err := s.ReadAtContext(context.Background(), name, off, n)
	if err != nil {
		t.Fatalf("ReadAtContext(%d, %d): %v", off, n, err)
	}
	defer v.Close()
	var want []byte
	for b := off / 2; len(want) < n; b++ {
		want = append(want, stubBlock(b)...)
	}
	if got := v.AppendTo(nil); !bytes.Equal(got, want[:n]) {
		t.Fatalf("ReadAtContext(%d, %d): wrong bytes", off, n)
	}
	return v.Stats()
}

// TestAdmitCyclicScanServesSecondPass: pages of an image 2.5 times the
// cache, read in a seeded order that repeats. The first pass fills the
// cache and then evicts nothing; the second pass serves the blocks that
// filled it. Inserting every decoded block instead leaves an LRU that
// has evicted each page before the loop comes back to it, and the
// second pass serves about nothing from cache.
func TestAdmitCyclicScanServesSecondPass(t *testing.T) {
	const (
		cacheBlocks = 256
		pageBlocks  = 16
		pages       = 40 // 640 blocks: 2.5x the cache
	)
	s := New(Options{CacheBlocks: cacheBlocks, CacheShards: 4, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", &stubCodec{blocks: pages * pageBlocks})
	order := rand.New(rand.NewSource(7)).Perm(pages)
	pass := func() (cached, blocks int) {
		for _, p := range order {
			st := readView(t, s, "img", 2*p*pageBlocks, 2*pageBlocks)
			cached += st.CachedBlocks
			blocks += st.Blocks
		}
		return cached, blocks
	}

	pass()
	st := s.cache.Stats()
	if s.cache.Len() != cacheBlocks || st.Evictions != 0 {
		t.Fatalf("after the first pass: %d entries, %d evictions; want a full cache and no evictions", s.cache.Len(), st.Evictions)
	}
	cached, blocks := pass()
	if share := float64(cached) / float64(blocks); share <= 0.15 {
		t.Fatalf("second pass served %d of %d blocks from cache (%.3f), want more than 15%%", cached, blocks, share)
	}
}

// TestAdmitColdPassEvictsNothing: once the cache is full, a pass over
// blocks no view has decoded before inserts none of them and evicts
// nothing, so the blocks already cached keep hitting.
func TestAdmitColdPassEvictsNothing(t *testing.T) {
	s := New(Options{CacheBlocks: 32, CacheShards: 2, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	img := s.addCodec("img", &stubCodec{blocks: 256})
	readView(t, s, "img", 0, 2*32)
	readView(t, s, "img", 2*32, 2*200)
	if st := s.cache.Stats(); s.cache.Len() != 32 || st.Evictions != 0 {
		t.Fatalf("cold pass over a full cache: %d entries, %d evictions", s.cache.Len(), st.Evictions)
	}
	for b := 0; b < 32; b++ {
		if !s.cache.Contains(img.key(b)) {
			t.Fatalf("block %d of the warm set evicted by a cold pass", b)
		}
	}
}

// TestAdmitReuseHorizon: with the cache full, a block decoded again
// before two epochs of marks have passed is admitted; one decoded again
// only after more marks than that is not, and is marked afresh.
func TestAdmitReuseHorizon(t *testing.T) {
	const cacheBlocks = 8 // one epoch is 8 marks
	s := New(Options{CacheBlocks: cacheBlocks, CacheShards: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	img := s.addCodec("img", &stubCodec{blocks: 128})
	readView(t, s, "img", 0, 2*cacheBlocks) // fill the cache

	read := func(b int) { readView(t, s, "img", 2*b, 2) }
	cold := 64 // the next block no view has decoded yet
	skip := func(n int) {
		for range n {
			read(cold)
			cold++
		}
	}

	read(20) // marked, not inserted
	if s.cache.Contains(img.key(20)) {
		t.Fatal("first decode of block 20 inserted into a full cache")
	}
	skip(cacheBlocks - 1) // the re-read lands in the next epoch at the latest
	read(20)
	if !s.cache.Contains(img.key(20)) {
		t.Fatal("block 20 re-read within the horizon was not admitted")
	}
	if ev := s.cache.Stats().Evictions; ev != 1 {
		t.Fatalf("admitting one block evicted %d", ev)
	}

	read(30)
	skip(2*cacheBlocks + 1) // two epochs and more
	read(30)
	if s.cache.Contains(img.key(30)) {
		t.Fatal("block 30 re-read after the horizon was admitted")
	}
	read(30) // the late re-read marked it afresh
	if !s.cache.Contains(img.key(30)) {
		t.Fatal("block 30 re-read right after its fresh mark was not admitted")
	}
}

// TestAdmitWithRoomOnFirstDecode: a cache with room takes every block a
// view decoded on its first decode, as demand reads would find it.
func TestAdmitWithRoomOnFirstDecode(t *testing.T) {
	s := New(Options{CacheBlocks: 64, CacheShards: 4, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	img := s.addCodec("img", &stubCodec{blocks: 256})
	readView(t, s, "img", 2*100, 2*40)
	for b := 100; b < 140; b++ {
		if !s.cache.Contains(img.key(b)) {
			t.Fatalf("block %d not inserted into a cache with room", b)
		}
	}
	if st := s.cache.Stats(); s.cache.Len() != 40 || st.Evictions != 0 {
		t.Fatalf("after one read: %+v, %d entries", st, s.cache.Len())
	}
}

// TestAdmitRaceWithReregistration runs views over a small full cache
// while the image's name is removed, re-registered and replaced, under
// the race detector in CI. Every read that succeeds returns the right
// bytes, and afterwards the cache holds no block under a dead
// registration: every entry belongs to the live image.
func TestAdmitRaceWithReregistration(t *testing.T) {
	_, text := testText(t)
	data := marshalSAMC(t, text)
	s := New(Options{CacheBlocks: 64, CacheShards: 4, Workers: 4, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", data); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				off := rng.Intn(len(text) - 512)
				n := 1 + rng.Intn(512)
				var got []byte
				var err error
				if g == 0 {
					var buf bytes.Buffer
					_, err = s.WriteText("prog", &buf)
					got, off, n = buf.Bytes(), 0, len(text)
				} else {
					var v *View
					if v, err = s.ReadAtContext(context.Background(), "prog", off, n); err == nil {
						got = v.AppendTo(nil)
						v.Close()
					}
				}
				switch {
				case errors.Is(err, ErrNotFound):
				case err != nil:
					t.Errorf("read [%d,+%d): %v", off, n, err)
					return
				case !bytes.Equal(got, text[off:off+n]):
					t.Errorf("read [%d,+%d): wrong bytes", off, n)
					return
				}
			}
		}()
	}
	for i := range 12 {
		if i%2 == 0 {
			if err := s.RemoveImage("prog"); err != nil {
				t.Error(err)
				break
			}
		}
		if _, err := s.AddImage("prog", data); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	img, err := s.lookup("prog")
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for b := 0; b < img.blocks; b++ {
		if s.cache.Contains(img.key(b)) {
			live++
		}
	}
	if n := s.cache.Len(); n != live {
		t.Fatalf("cache holds %d blocks, only %d of them under the live registration", n, live)
	}
}

// TestViewTicketsCappedAtWorkers: a read whose blocks alternate between
// cached and uncached has more miss runs than the pool has workers. It
// takes at most Workers tickets, so with the only worker busy and a
// one-slot admission queue it is served instead of rejecting itself
// with queue_full.
func TestViewTicketsCappedAtWorkers(t *testing.T) {
	var hold atomic.Bool
	started, release := make(chan struct{}), make(chan struct{})
	c := &stubCodec{blocks: 16, decode: func(i int) ([]byte, error) {
		if hold.Load() && i == 15 {
			close(started)
			<-release
		}
		return stubBlock(i), nil
	}}
	s := New(Options{
		Workers: 1, QueueDepth: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1,
		// No evaluator tick: the brownout level stays Healthy, so the
		// only gate the read meets is the queue.
		Overload: &overload.Config{}, noEvaluator: true,
	})
	defer s.Close()
	img := s.addCodec("img", c)
	for _, b := range []int{1, 3, 5, 7} {
		if _, _, err := s.BlockContext(context.Background(), "img", b); err != nil {
			t.Fatal(err)
		}
	}

	// Occupy the only worker with a demand miss on block 15.
	hold.Store(true)
	demand := make(chan error, 1)
	go func() {
		_, _, err := s.BlockContext(context.Background(), "img", 15)
		demand <- err
	}()
	<-started

	// [0,7] has miss runs {0} {2} {4} {6}: one ticket per run would
	// take the queue's only slot and then be refused. The dispatch half
	// of the read enqueues without waiting, so it runs on this goroutine
	// while the worker is still held.
	v := newView()
	defer v.Close()
	err := s.dispatchView(nil, img, v, 0, 7, 0, false)
	close(release)
	if err != nil {
		t.Fatalf("dispatch of [0,7] with the worker busy: %v", err)
	}
	if err := s.awaitView(nil, img, v); err != nil {
		t.Fatalf("range [0,7]: %v", err)
	}
	if err := <-demand; err != nil {
		t.Fatalf("demand read: %v", err)
	}
	var want []byte
	for b := 0; b < 8; b++ {
		want = append(want, stubBlock(b)...)
	}
	if !bytes.Equal(v.AppendTo(nil), want) {
		t.Fatal("range [0,7]: wrong bytes")
	}
	if st := v.Stats(); st.Dispatches != 1 || st.DecodedBlocks != 4 {
		t.Fatalf("RangeStats = %+v, want one ticket decoding 4 blocks", st)
	}
	if n := metric(t, s, "overload_admission_rejects_total", "reason", "queue_full"); n != 0 {
		t.Fatalf("%d queue_full rejects", n)
	}
}
