package romserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codecomp/internal/faultinj"
)

// fastFaultOpts are serving options tuned so fault paths resolve in
// milliseconds instead of seconds.
func fastFaultOpts() Options {
	return Options{
		PrefetchDepth:    -1,
		LoadAttempts:     3,
		LoadTimeout:      time.Second,
		ReverifyInterval: 20 * time.Millisecond,
	}
}

// TestWorkerSurvivesPanickingCodec is the regression test for the crash
// the tentpole fixes: before faultlab, a panic inside codec.Block
// propagated out of Server.handle, killed a pool worker and (unrecovered
// on that goroutine) crashed the process. Now the panic becomes
// ErrCodecPanic and the pool keeps serving other images afterwards.
func TestWorkerSurvivesPanickingCodec(t *testing.T) {
	stub := &stubCodec{blocks: 8}
	s := New(func() Options { o := fastFaultOpts(); o.Workers = 2; return o }())
	defer s.Close()
	s.addCodec("boom", &stubCodec{blocks: 8, decode: func(i int) ([]byte, error) {
		panic(fmt.Sprintf("boom on block %d", i))
	}})
	s.addCodec("good", stub)

	// Hammer the panicking image more times than there are workers: if
	// panics killed workers, the pool would be dead after two requests.
	for i := 0; i < 10; i++ {
		_, _, err := s.BlockContext(context.Background(), "boom", i%8)
		if !errors.Is(err, ErrCodecPanic) {
			t.Fatalf("Block(boom) err = %v, want ErrCodecPanic", err)
		}
	}
	// The pool still serves the healthy image.
	for i := 0; i < 8; i++ {
		data, _, err := s.BlockContext(context.Background(), "good", i)
		if err != nil || !bytes.Equal(data, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("Block(good,%d) = %v, %v after panics", i, data, err)
		}
	}
	if n := metric(t, s, "romserver_codec_panics_total"); n < 10 {
		t.Fatalf("panics recovered = %d, want >= 10", n)
	}
	if h := healthOf(t, s, "boom"); h.State == Healthy.String() {
		t.Fatalf("boom image health = %+v", h)
	}
}

// newFlakyCodec returns a stub that fails its first failures decodes,
// with a transient error unless permanent is set, then succeeds.
func newFlakyCodec(blocks int, failures int64, permanent bool) *stubCodec {
	c := &stubCodec{blocks: blocks}
	c.decode = func(i int) ([]byte, error) {
		if c.calls.Load() <= failures {
			if permanent {
				return nil, errors.New("deterministic decode failure")
			}
			return nil, &tempErr{msg: "transient decode failure"}
		}
		return stubBlock(i), nil
	}
	return c
}

type tempErr struct{ msg string }

func (e *tempErr) Error() string   { return e.msg }
func (e *tempErr) Temporary() bool { return true }

func TestTransientErrorsRetriedWithBackoff(t *testing.T) {
	flaky := newFlakyCodec(4, 2, false)
	s := New(fastFaultOpts())
	defer s.Close()
	s.addCodec("flaky", flaky)

	data, _, err := s.BlockContext(context.Background(), "flaky", 1)
	if err != nil || !bytes.Equal(data, []byte{1, 0}) {
		t.Fatalf("Block = %v, %v; want success after retries", data, err)
	}
	if n := metric(t, s, "romserver_retries_total"); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	if flaky.calls.Load() != 3 {
		t.Fatalf("codec called %d times, want 3", flaky.calls.Load())
	}
	// The successful final outcome keeps the image healthy.
	if h, n := healthOf(t, s, "flaky"), metric(t, s, "romserver_load_failures_total"); h.State != Healthy.String() || n != 0 {
		t.Fatalf("health %+v, %d load failures", h, n)
	}
}

func TestPermanentErrorsNotRetried(t *testing.T) {
	flaky := newFlakyCodec(4, 1<<30, true)
	s := New(fastFaultOpts())
	defer s.Close()
	s.addCodec("broken", flaky)

	if _, _, err := s.BlockContext(context.Background(), "broken", 0); err == nil {
		t.Fatal("broken block served")
	}
	if flaky.calls.Load() != 1 {
		t.Fatalf("permanent error retried: %d calls", flaky.calls.Load())
	}
	h := healthOf(t, s, "broken")
	if n := metric(t, s, "romserver_load_failures_total"); n != 1 || h.BadBlocks != 1 {
		t.Fatalf("%d load failures, health %+v", n, h)
	}
	if h.State != Degraded.String() {
		t.Fatalf("health = %s, want degraded (bad block listed)", h.State)
	}
}

func TestDecompressionDeadline(t *testing.T) {
	// The gate opens only at cleanup, so every decode wedges.
	wedged := &stubCodec{blocks: 2, gate: make(chan struct{})}
	defer close(wedged.gate)
	o := fastFaultOpts()
	o.LoadAttempts = 1
	o.LoadTimeout = 30 * time.Millisecond
	s := New(o)
	defer s.Close()
	s.addCodec("wedged", wedged)

	start := time.Now()
	_, _, err := s.BlockContext(context.Background(), "wedged", 0)
	if !errors.Is(err, ErrDecompressTimeout) {
		t.Fatalf("err = %v, want ErrDecompressTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v", d)
	}
	if n := metric(t, s, "romserver_decode_timeouts_total"); n != 1 {
		t.Fatalf("%d timeouts, want 1", n)
	}
}

// TestCorruptBlockNeverServedNeverCached: with an injector flipping a bit
// in every decompression, every attempt fails verification, the read
// reports ErrCorruptBlock, and nothing lands in the cache.
func TestCorruptBlockNeverServedNeverCached(t *testing.T) {
	_, text := testText(t)
	s := New(fastFaultOpts())
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 1, BitFlipRate: 1}); err != nil {
		t.Fatal(err)
	}

	_, _, err := s.BlockContext(context.Background(), "prog", 3)
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("err = %v, want ErrCorruptBlock", err)
	}
	if s.cache.Contains(blockKey(s, "prog", 3)) {
		t.Fatal("corrupt block entered the cache")
	}
	// Every attempt was corrupt: LoadAttempts detections, one failure.
	if n := metric(t, s, "romserver_corrupt_blocks_total"); n != 3 {
		t.Fatalf("corrupt detections = %d, want 3", n)
	}
	h := healthOf(t, s, "prog")
	if n := metric(t, s, "romserver_load_failures_total"); n != 1 || h.BadBlocks != 1 {
		t.Fatalf("%d load failures, health %+v", n, h)
	}

	// Clearing the faults and re-reading serves the true bytes and heals
	// the bad-block entry.
	if err := s.SetFaults("prog", nil); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.BlockContext(context.Background(), "prog", 3)
	if err != nil || !bytes.Equal(data, text[3*32:4*32]) {
		t.Fatalf("post-recovery Block = %v, %v", len(data), err)
	}
	if h := healthOf(t, s, "prog"); h.BadBlocks != 0 {
		t.Fatalf("bad block not cleared: %+v", h)
	}
}

// TestHealthStateMachine drives an image through healthy → degraded →
// quarantined → (faults stop, background re-verify) → healthy, and
// checks the quarantine serving contract: cached blocks keep serving,
// fresh decompressions are refused.
func TestHealthStateMachine(t *testing.T) {
	_, text := testText(t)
	s := New(fastFaultOpts())
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Health != Healthy.String() {
		t.Fatalf("fresh image health = %s", info.Health)
	}
	if info.Blocks < 20 {
		t.Fatalf("test image too small: %d blocks", info.Blocks)
	}

	// Warm one good block before the faults start.
	warm := info.Blocks - 1
	if _, _, err := s.BlockContext(context.Background(), "prog", warm); err != nil {
		t.Fatal(err)
	}

	// Blocks 0..15 now fail permanently.
	bad := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if err := s.SetFaults("prog", &faultinj.Options{ErrorBlocks: bad}); err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for _, b := range bad {
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err == nil {
			t.Fatalf("faulted block %d served", b)
		}
		if healthOf(t, s, "prog").State == Degraded.String() {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("degraded state never observed on the way down")
	}
	ready, infos := s.Health()
	if ready || len(infos) != 1 || infos[0].State != Quarantined.String() {
		t.Fatalf("Health() = %v %+v, want quarantined", ready, infos)
	}
	if n := metric(t, s, "romserver_images_unready"); n != 1 {
		t.Fatalf("romserver_images_unready = %d while quarantined, want 1", n)
	}

	// Quarantine contract: the warmed block still serves from cache...
	if data, hit, err := s.BlockContext(context.Background(), "prog", warm); err != nil || !hit {
		t.Fatalf("cached read under quarantine: hit=%v err=%v", hit, err)
	} else if want := text[warm*32:]; !bytes.Equal(data, want[:min(32, len(want))]) {
		t.Fatal("cached read returned wrong bytes")
	}
	// ...but a fresh decompression is refused.
	if _, _, err := s.BlockContext(context.Background(), "prog", 17); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("uncached read under quarantine: %v, want ErrQuarantined", err)
	}

	// Faults stop; the background re-verifier must walk the image back to
	// healthy without any client traffic.
	if err := s.SetFaults("prog", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if h := healthOf(t, s, "prog"); h.State == Healthy.String() {
			if n := metric(t, s, "romserver_reverifies_total"); n == 0 {
				t.Fatalf("recovered without reverifies: %+v", h)
			}
			if n := metric(t, s, "romserver_health_transitions_total"); n < 3 {
				t.Fatalf("transitions = %d, want >= 3", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("image never recovered: %+v", healthOf(t, s, "prog"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ready, _ := s.Health(); !ready {
		t.Fatal("not ready after recovery")
	}
	// Normal serving resumed.
	if _, _, err := s.BlockContext(context.Background(), "prog", 17); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
}

// TestChaosInvariantInProcess is the in-process version of the loadgen
// -chaos invariant: under injected bit flips and transient errors, every
// successfully served byte matches the original text, and the corruption
// that was injected was detected (not silently served).
func TestChaosInvariantInProcess(t *testing.T) {
	_, text := testText(t)
	o := fastFaultOpts()
	o.CacheBlocks = 16 // far below the image: keep forcing real decompressions
	s := New(o)
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 42, BitFlipRate: 0.05, TransientRate: 0.02}); err != nil {
		t.Fatal(err)
	}

	var served, failed int
	for round := 0; round < 3; round++ {
		for b := 0; b < info.Blocks; b++ {
			data, _, err := s.BlockContext(context.Background(), "prog", b)
			if err != nil {
				failed++
				continue
			}
			served++
			end := (b + 1) * 32
			if end > len(text) {
				end = len(text)
			}
			if !bytes.Equal(data, text[b*32:end]) {
				t.Fatalf("round %d block %d: corrupt bytes served", round, b)
			}
		}
	}
	corrupt, flips := metric(t, s, "romserver_corrupt_blocks_total"), metric(t, s, "faultinj_bitflips_total")
	t.Logf("served %d, failed %d; detected %d corruptions, %d retries; injected %d bit flips",
		served, failed, corrupt, metric(t, s, "romserver_retries_total"), flips)
	if flips == 0 {
		t.Fatal("injector never flipped a bit — test proves nothing")
	}
	if corrupt != flips {
		t.Fatalf("injected %d flips but detected %d corruptions", flips, corrupt)
	}
	if served == 0 || failed > served/10 {
		t.Fatalf("implausible chaos outcome: %d served, %d failed", served, failed)
	}
}

// TestConcurrentAddRemoveRace races AddImage/RemoveImage cycles against
// Block/Range readers: every successful read must carry bytes from one of
// the two registered contents, removed images must report ErrNotFound,
// and (under -race) no memory races.
func TestConcurrentAddRemoveRace(t *testing.T) {
	_, full := testText(t)
	textA := full[:2048]
	textB := append([]byte(nil), textA...)
	for i := range textB {
		textB[i] ^= 0xA5
	}
	imgA := marshalSAMC(t, textA)
	imgB := marshalSAMC(t, textB)
	blocks := len(textA) / 32

	s := New(Options{PrefetchDepth: -1})
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn registration
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			data := imgA
			if i%2 == 1 {
				data = imgB
			}
			if _, err := s.AddImage("img", data); err != nil {
				t.Errorf("AddImage: %v", err)
				return
			}
			if i%3 == 2 {
				if err := s.RemoveImage("img"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("RemoveImage: %v", err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				b := rng.Intn(blocks)
				data, _, err := s.BlockContext(context.Background(), "img", b)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue
					}
					t.Errorf("Block(%d): %v", b, err)
					return
				}
				wantA, wantB := textA[b*32:(b+1)*32], textB[b*32:(b+1)*32]
				if !bytes.Equal(data, wantA) && !bytes.Equal(data, wantB) {
					t.Errorf("Block(%d): stale or mixed bytes", b)
					return
				}
				if b+1 < blocks && rng.Intn(8) == 0 {
					rdata, _, err := rangeBytes(s, "img", b, b+1)
					if err == nil && !bytes.Equal(rdata[:32], wantA) && !bytes.Equal(rdata[:32], wantB) {
						t.Errorf("rangeBytes(%d): stale bytes", b)
						return
					}
				}
			}
		}(int64(g))
	}
	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Once removed, reads deterministically miss.
	s.RemoveImage("img") //nolint:errcheck — may already be gone
	if _, _, err := s.BlockContext(context.Background(), "img", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after remove: %v", err)
	}
}

// TestStaleInsertCannotServeNewRegistration pins down the generation-key
// fix in blockcache: a load that was in flight when its image was
// replaced inserts under the old generation and can never satisfy reads
// of the new registration.
func TestStaleInsertCannotServeNewRegistration(t *testing.T) {
	gate := make(chan struct{})
	old := &stubCodec{blocks: 4, gate: gate}
	s := New(Options{PrefetchDepth: -1})
	defer s.Close()
	s.addCodec("img", old)

	// Start a read that stalls inside the old codec's loader.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.BlockContext(context.Background(), "img", 0) //nolint:errcheck — the bytes belong to the old registration
	}()
	deadline := time.Now().Add(10 * time.Second)
	for old.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("old loader never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Replace the image while that load is still in flight, then let the
	// stale load complete and insert (under the old generation).
	replacement := &stubCodec{blocks: 4}
	if err := s.RemoveImage("img"); err != nil {
		t.Fatal(err)
	}
	s.addCodec("img", replacement)
	close(gate)
	<-done

	// The new registration must decompress fresh — never see the stale
	// insert. (Both stubs declare block 0 as {0,0}, so distinguish by
	// observing a miss + a fresh codec call.)
	before := replacement.calls.Load()
	_, hit, err := s.BlockContext(context.Background(), "img", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit || replacement.calls.Load() == before {
		t.Fatal("new registration served the stale insert")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// loadCounts is the load path's observation counts: the decode, verify
// and block-load histograms and the decompression counter.
type loadCounts struct{ decode, verify, load, decompressions int64 }

func (s *Server) loadCounts() loadCounts {
	return loadCounts{s.met.decode.Count(), s.met.verify.Count(), s.met.blockLoad.Count(), s.met.decompressions.Value()}
}

func (c loadCounts) sub(o loadCounts) loadCounts {
	return loadCounts{c.decode - o.decode, c.verify - o.verify, c.load - o.load, c.decompressions - o.decompressions}
}

// TestSharedReadingsObserveEveryStage pins the load path's shared clock
// readings: a cold read of N blocks still lands exactly one observation
// per block in each phase histogram, counts N decompressions and leaves
// a positive decode time, and a retried attempt is observed on its
// own.
func TestSharedReadingsObserveEveryStage(t *testing.T) {
	_, text := testText(t)
	s := New(Options{PrefetchDepth: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	const n = 20
	before := s.loadCounts()
	v, err := s.ReadAtContext(context.Background(), "prog", 3*32, n*32)
	if err != nil {
		t.Fatal(err)
	}
	got := v.AppendTo(nil)
	v.Close()
	if !bytes.Equal(got, text[3*32:(3+n)*32]) {
		t.Fatal("cold read returned wrong bytes")
	}
	if d := s.loadCounts().sub(before); d != (loadCounts{n, n, n, n}) {
		t.Fatalf("cold %d-block read observed %+v, want %d of each", n, d, n)
	}
	if ns := s.met.decode.Snapshot().Sum; ns <= 0 {
		t.Fatalf("decode time = %d ns, want > 0", ns)
	}

	// One transient failure: the retry is a second decode attempt of
	// the same block, observed as its own decode, while verify and
	// block load still count one per block.
	f := New(fastFaultOpts())
	defer f.Close()
	f.addCodec("flaky", newFlakyCodec(64, 1, false))
	before = f.loadCounts()
	v, err = f.ReadAtContext(context.Background(), "flaky", 0, n*2)
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	if d := f.loadCounts().sub(before); d != (loadCounts{n + 1, n, n, n + 1}) {
		t.Fatalf("%d-block read with one transient failure observed %+v", n, d)
	}
	if r := metric(t, f, "romserver_retries_total"); r != 1 {
		t.Fatalf("retries = %d, want 1", r)
	}
}

// lockedHealth is a reference copy of imageHealth.record as it was before
// the clean-window fast path: every outcome takes the lock and advances
// the ring.
type lockedHealth struct {
	window []bool
	idx    int
	filled int
	fails  int
	state  HealthState
	bad    map[int]struct{}
}

func (h *lockedHealth) record(block int, failed bool) (from, to HealthState, changed bool) {
	if h.filled == len(h.window) {
		if h.window[h.idx] {
			h.fails--
		}
	} else {
		h.filled++
	}
	h.window[h.idx] = failed
	if failed {
		h.fails++
		h.bad[block] = struct{}{}
	} else {
		delete(h.bad, block)
	}
	h.idx = (h.idx + 1) % len(h.window)
	rate := float64(h.fails) / float64(h.filled)
	next := Healthy
	switch {
	case h.filled >= minHealthObs && rate >= quarantineRate:
		next = Quarantined
	case (h.filled >= minHealthObs && rate >= degradedRate) || len(h.bad) > 0:
		next = Degraded
	}
	from = h.state
	if next == from {
		return from, next, false
	}
	h.state = next
	return from, next, true
}

// TestHealthFastPathMatchesLocked feeds seeded random outcome sequences
// through imageHealth.record and through the locked reference: after
// every step both must report the same transition, state, bad-block set
// and failure rate. The sequences alternate clean
// stretches (where the fast path serves successes) with failure bursts
// of varying density, so the window fills, empties of failures, degrades,
// quarantines and recovers many times.
func TestHealthFastPathMatchesLocked(t *testing.T) {
	for _, size := range []int{1, 4, minHealthObs, 64} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := newImageHealth(size)
			ref := &lockedHealth{window: make([]bool, size), bad: map[int]struct{}{}}
			failP := 0.0
			for step := 0; step < 4000; step++ {
				if step%100 == 0 {
					failP = []float64{0, 0, 0.02, 0.2, 0.7}[rng.Intn(5)]
				}
				block, failed := rng.Intn(6), rng.Float64() < failP
				f1, t1, c1 := h.record(block, failed)
				f2, t2, c2 := ref.record(block, failed)
				if f1 != f2 || t1 != t2 || c1 != c2 {
					t.Fatalf("size %d seed %d step %d: record = (%v, %v, %v), reference (%v, %v, %v)",
						size, seed, step, f1, t1, c1, f2, t2, c2)
				}
				state, nbad, rate := h.snapshot()
				wantRate := float64(ref.fails) / float64(ref.filled)
				if state != ref.state || nbad != len(ref.bad) || rate != wantRate {
					t.Fatalf("size %d seed %d step %d: state %v bad %d rate %v, reference %v %d %v",
						size, seed, step, state, nbad, rate, ref.state, len(ref.bad), wantRate)
				}
				h.mu.Lock()
				for b := range ref.bad {
					if _, ok := h.bad[b]; !ok {
						t.Fatalf("size %d seed %d step %d: block %d bad in the reference only", size, seed, step, b)
					}
				}
				h.mu.Unlock()
			}
		}
	}
}
