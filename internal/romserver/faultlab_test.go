package romserver

import (
	"bytes"
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
		RetryBackoff:     time.Millisecond,
		LoadTimeout:      time.Second,
		ReverifyInterval: 20 * time.Millisecond,
	}
}

// panicCodec panics on every Block call.
type panicCodec struct{ blocks int }

func (c *panicCodec) NumBlocks() int              { return c.blocks }
func (c *panicCodec) Block(i int) ([]byte, error) { panic(fmt.Sprintf("boom on block %d", i)) }
func (c *panicCodec) Decompress() ([]byte, error) { panic("boom") }
func (c *panicCodec) CompressedSize() int         { return c.blocks }
func (c *panicCodec) Ratio() float64              { return 1 }

// TestWorkerSurvivesPanickingCodec is the regression test for the crash
// the tentpole fixes: before faultlab, a panic inside codec.Block
// propagated out of Server.handle, killed a pool worker and (unrecovered
// on that goroutine) crashed the process. Now the panic becomes
// ErrCodecPanic and the pool keeps serving other images afterwards.
func TestWorkerSurvivesPanickingCodec(t *testing.T) {
	stub := &stubCodec{blocks: 8}
	s := New(func() Options { o := fastFaultOpts(); o.Workers = 2; return o }())
	defer s.Close()
	s.addCodec("boom", &panicCodec{blocks: 8}, "stub")
	s.addCodec("good", stub, "stub")

	// Hammer the panicking image more times than there are workers: if
	// panics killed workers, the pool would be dead after two requests.
	for i := 0; i < 10; i++ {
		_, _, err := s.Block("boom", i%8)
		if !errors.Is(err, ErrCodecPanic) {
			t.Fatalf("Block(boom) err = %v, want ErrCodecPanic", err)
		}
	}
	// The pool still serves the healthy image.
	for i := 0; i < 8; i++ {
		data, _, err := s.Block("good", i)
		if err != nil || !bytes.Equal(data, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("Block(good,%d) = %v, %v after panics", i, data, err)
		}
	}
	st := s.Stats()
	if st.Faults.PanicsRecovered < 10 {
		t.Fatalf("panics recovered = %d, want >= 10", st.Faults.PanicsRecovered)
	}
	for _, is := range st.Images {
		if is.Name == "boom" {
			if is.PanicsRecovered < 10 || is.Health == Healthy.String() {
				t.Fatalf("boom image stats = %+v", is)
			}
		}
	}
}

// flakyCodec fails its first failures calls with a transient error, then
// succeeds.
type flakyCodec struct {
	stubCodec
	failures  int64
	permanent bool
}

type tempErr struct{ msg string }

func (e *tempErr) Error() string   { return e.msg }
func (e *tempErr) Temporary() bool { return true }

func (c *flakyCodec) Block(i int) ([]byte, error) {
	n := c.calls.Add(1)
	if n <= c.failures {
		if c.permanent {
			return nil, errors.New("deterministic decode failure")
		}
		return nil, &tempErr{msg: "transient decode failure"}
	}
	return []byte{byte(i), byte(i >> 8)}, nil
}

func TestTransientErrorsRetriedWithBackoff(t *testing.T) {
	flaky := &flakyCodec{stubCodec: stubCodec{blocks: 4}, failures: 2}
	s := New(fastFaultOpts())
	defer s.Close()
	s.addCodec("flaky", flaky, "stub")

	data, _, err := s.Block("flaky", 1)
	if err != nil || !bytes.Equal(data, []byte{1, 0}) {
		t.Fatalf("Block = %v, %v; want success after retries", data, err)
	}
	st := s.Stats()
	if st.Faults.Retries != 2 || st.Images[0].Retries != 2 {
		t.Fatalf("retries = %d (image %d), want 2", st.Faults.Retries, st.Images[0].Retries)
	}
	if flaky.calls.Load() != 3 {
		t.Fatalf("codec called %d times, want 3", flaky.calls.Load())
	}
	// The successful final outcome keeps the image healthy.
	if st.Images[0].Health != Healthy.String() || st.Images[0].LoadFailures != 0 {
		t.Fatalf("image stats = %+v", st.Images[0])
	}
}

func TestPermanentErrorsNotRetried(t *testing.T) {
	flaky := &flakyCodec{stubCodec: stubCodec{blocks: 4}, failures: 1 << 30, permanent: true}
	s := New(fastFaultOpts())
	defer s.Close()
	s.addCodec("broken", flaky, "stub")

	if _, _, err := s.Block("broken", 0); err == nil {
		t.Fatal("broken block served")
	}
	if flaky.calls.Load() != 1 {
		t.Fatalf("permanent error retried: %d calls", flaky.calls.Load())
	}
	st := s.Stats()
	if st.Images[0].LoadFailures != 1 || st.Images[0].BadBlocks != 1 {
		t.Fatalf("image stats = %+v", st.Images[0])
	}
	if st.Images[0].Health != Degraded.String() {
		t.Fatalf("health = %s, want degraded (bad block listed)", st.Images[0].Health)
	}
}

// wedgedCodec blocks forever on a channel — unless open is set, in
// which case it serves the stub bytes (so lazily built offset tables and
// warm-up reads work before the wedge is armed).
type wedgedCodec struct {
	stubCodec
	wedge chan struct{}
	open  atomic.Bool
}

func (c *wedgedCodec) Block(i int) ([]byte, error) {
	if c.open.Load() {
		return c.stubCodec.Block(i)
	}
	<-c.wedge
	return nil, errors.New("unreachable")
}

func TestDecompressionDeadline(t *testing.T) {
	wedged := &wedgedCodec{stubCodec: stubCodec{blocks: 2}, wedge: make(chan struct{})}
	defer close(wedged.wedge)
	o := fastFaultOpts()
	o.LoadAttempts = 1
	o.LoadTimeout = 30 * time.Millisecond
	s := New(o)
	defer s.Close()
	s.addCodec("wedged", wedged, "stub")

	start := time.Now()
	_, _, err := s.Block("wedged", 0)
	if !errors.Is(err, ErrDecompressTimeout) {
		t.Fatalf("err = %v, want ErrDecompressTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v", d)
	}
	if st := s.Stats(); st.Faults.Timeouts != 1 || st.Images[0].Timeouts != 1 {
		t.Fatalf("timeout counters: %+v", st.Faults)
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

	_, _, err := s.Block("prog", 3)
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("err = %v, want ErrCorruptBlock", err)
	}
	if s.cache.Contains(blockKey(s, "prog", 3)) {
		t.Fatal("corrupt block entered the cache")
	}
	st := s.Stats()
	// Every attempt was corrupt: LoadAttempts detections, one failure.
	if st.Faults.CorruptBlocks != 3 || st.Images[0].CorruptBlocks != 3 {
		t.Fatalf("corrupt detections = %d, want 3", st.Faults.CorruptBlocks)
	}
	if st.Images[0].LoadFailures != 1 || st.Images[0].BadBlocks != 1 {
		t.Fatalf("image stats = %+v", st.Images[0])
	}

	// Clearing the faults and re-reading serves the true bytes and heals
	// the bad-block entry.
	if err := s.SetFaults("prog", nil); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Block("prog", 3)
	if err != nil || !bytes.Equal(data, text[3*32:4*32]) {
		t.Fatalf("post-recovery Block = %v, %v", len(data), err)
	}
	if st := s.Stats(); st.Images[0].BadBlocks != 0 {
		t.Fatalf("bad block not cleared: %+v", st.Images[0])
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
	if _, _, err := s.Block("prog", warm); err != nil {
		t.Fatal(err)
	}

	// Blocks 0..15 now fail permanently.
	bad := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if err := s.SetFaults("prog", &faultinj.Options{ErrorBlocks: bad}); err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for _, b := range bad {
		if _, _, err := s.Block("prog", b); err == nil {
			t.Fatalf("faulted block %d served", b)
		}
		if st := s.Stats(); st.Images[0].Health == Degraded.String() {
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
	if st := s.Stats(); st.Ready {
		t.Fatal("Stats.Ready true while quarantined")
	}

	// Quarantine contract: the warmed block still serves from cache...
	if data, hit, err := s.Block("prog", warm); err != nil || !hit {
		t.Fatalf("cached read under quarantine: hit=%v err=%v", hit, err)
	} else if want := text[warm*32:]; !bytes.Equal(data, want[:min(32, len(want))]) {
		t.Fatal("cached read returned wrong bytes")
	}
	// ...but a fresh decompression is refused.
	if _, _, err := s.Block("prog", 17); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("uncached read under quarantine: %v, want ErrQuarantined", err)
	}

	// Faults stop; the background re-verifier must walk the image back to
	// healthy without any client traffic.
	if err := s.SetFaults("prog", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st := s.Stats(); st.Images[0].Health == Healthy.String() {
			if st.Images[0].Reverifies == 0 || st.Faults.Reverifies == 0 {
				t.Fatalf("recovered without reverifies: %+v", st.Images[0])
			}
			if st.Images[0].HealthTransitions < 3 || st.Faults.HealthTransitions < 3 {
				t.Fatalf("transitions = %d, want >= 3", st.Images[0].HealthTransitions)
			}
			break
		}
		if time.Now().After(deadline) {
			st := s.Stats()
			t.Fatalf("image never recovered: %+v", st.Images[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ready, _ := s.Health(); !ready {
		t.Fatal("not ready after recovery")
	}
	// Normal serving resumed.
	if _, _, err := s.Block("prog", 17); err != nil {
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
			data, _, err := s.Block("prog", b)
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
	st := s.Stats()
	fs, err := s.FaultStats("prog")
	if err != nil || fs == nil {
		t.Fatalf("FaultStats = %+v, %v", fs, err)
	}
	t.Logf("served %d, failed %d; detected %d corruptions, %d retries; injected %+v",
		served, failed, st.Faults.CorruptBlocks, st.Faults.Retries, *fs)
	if fs.BitFlips == 0 {
		t.Fatal("injector never flipped a bit — test proves nothing")
	}
	if st.Faults.CorruptBlocks != fs.BitFlips {
		t.Fatalf("injected %d flips but detected %d corruptions", fs.BitFlips, st.Faults.CorruptBlocks)
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

	s := New(Options{PrefetchDepth: -1, RetryBackoff: time.Millisecond})
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
				data, _, err := s.Block("img", b)
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
	if _, _, err := s.Block("img", 0); !errors.Is(err, ErrNotFound) {
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
	s.addCodec("img", old, "stub")

	// Start a read that stalls inside the old codec's loader.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Block("img", 0) //nolint:errcheck — the bytes belong to the old registration
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
	replacement := &flakyCodec{stubCodec: stubCodec{blocks: 4}}
	if err := s.RemoveImage("img"); err != nil {
		t.Fatal(err)
	}
	s.addCodec("img", replacement, "stub")
	close(gate)
	<-done

	// The new registration must decompress fresh — never see the stale
	// insert. (stubCodec block 0 = {0,0}; flakyCodec block 0 = {0,0} too,
	// so distinguish by observing a miss + a fresh codec call.)
	before := replacement.calls.Load()
	_, hit, err := s.Block("img", 0)
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
