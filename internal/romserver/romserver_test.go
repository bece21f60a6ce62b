package romserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/blockcache"
)

// testText returns a small synthetic MIPS text plus its generating program
// (for trace replay).
func testText(t testing.TB) (*codecomp.MIPSProgram, []byte) {
	t.Helper()
	prog := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv"))
	return prog, prog.Text()
}

// fullText reads the whole decompressed program through WriteText.
func fullText(s *Server, name string) ([]byte, error) {
	var buf bytes.Buffer
	_, err := s.WriteText(name, &buf)
	return buf.Bytes(), err
}

func marshalSAMC(t testing.TB, text []byte) []byte {
	t.Helper()
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	return img.Marshal()
}

func TestAddImageFormatsAndReplace(t *testing.T) {
	_, text := testText(t)
	s := New(Options{})
	defer s.Close()

	sadcImg, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		t.Fatal(err)
	}
	ransImg, err := codecomp.CompressRANS(text, codecomp.RANSOptions{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// OrigSize is the sidecar's total, so every format must report the
	// whole text.
	cases := []struct {
		name, format string
		data         []byte
	}{
		{"prog-samc", codecomp.FormatSAMC, marshalSAMC(t, text)},
		{"prog-sadc", codecomp.FormatSADC, sadcImg.Marshal()},
		{"prog-huff", codecomp.FormatHuffman, huffImg.Marshal()},
		{"prog-rans", codecomp.FormatRANS, ransImg.Marshal()},
		{"prog-tiered", codecomp.FormatTiered, marshalTiered(t, text)},
	}
	for _, c := range cases {
		info, err := s.AddImage(c.name, c.data)
		if err != nil {
			t.Fatalf("AddImage(%s): %v", c.name, err)
		}
		if info.Format != c.format || info.Blocks == 0 || info.OrigSize != len(text) {
			t.Fatalf("AddImage(%s) info = %+v", c.name, info)
		}
	}
	if len(s.Images()) != len(cases) {
		t.Fatalf("Images() = %v", s.Images())
	}

	if _, err := s.AddImage("bad", []byte("not an image")); err == nil {
		t.Fatal("garbage upload accepted")
	}
	if _, err := s.AddImage("bad/name", cases[0].data); err == nil {
		t.Fatal("invalid name accepted")
	}

	// Replacing an image drops its cached blocks.
	if _, _, err := s.BlockContext(context.Background(), "prog-samc", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddImage("prog-samc", cases[0].data); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.Len(); got != 0 {
		// Only prog-samc blocks could be cached at this point (modulo its
		// prefetches, which are also invalidated).
		if s.cache.Contains(blockKey(s, "prog-samc", 0)) {
			t.Fatal("replaced image still cached")
		}
		_ = got
	}

	if err := s.RemoveImage("prog-huff"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveImage("prog-huff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second remove: %v", err)
	}
}

// blockKey resolves the live registration's cache key for one block; an
// unregistered name gets id 0, which no registration is assigned.
func blockKey(s *Server, name string, i int) blockcache.Key {
	img, err := s.lookup(name)
	if err != nil {
		return blockcache.Key{Block: uint32(i)}
	}
	return img.key(i)
}

func TestBlockRangeFullText(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 64})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{0, 1, info.Blocks / 2, info.Blocks - 1} {
		got, _, err := s.BlockContext(context.Background(), "prog", i)
		if err != nil {
			t.Fatalf("Block(%d): %v", i, err)
		}
		end := (i + 1) * 32
		if end > len(text) {
			end = len(text)
		}
		if !bytes.Equal(got, text[i*32:end]) {
			t.Fatalf("Block(%d) mismatch", i)
		}
	}

	got, _, err := rangeBytes(s, "prog", 2, 5)
	if err != nil || !bytes.Equal(got, text[2*32:6*32]) {
		t.Fatalf("rangeBytes(2,5): %v", err)
	}

	full, err := fullText(s, "prog")
	if err != nil || !bytes.Equal(full, text) {
		t.Fatalf("full text: len %d vs %d, err %v", len(full), len(text), err)
	}

	// Error surfaces.
	if _, _, err := s.BlockContext(context.Background(), "prog", -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Block(-1): %v", err)
	}
	if _, _, err := s.BlockContext(context.Background(), "prog", info.Blocks); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Block(N): %v", err)
	}
	if _, _, err := rangeBytes(s, "prog", 5, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("rangeBytes(5,2): %v", err)
	}
	if _, _, err := s.BlockContext(context.Background(), "nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Block(nope): %v", err)
	}
}

// TestSingleflightCollapse is the acceptance-criteria assertion: concurrent
// demand misses on the same block must trigger exactly one decompression —
// not one per caller.
func TestSingleflightCollapse(t *testing.T) {
	const waiters = 16
	stub := &stubCodec{blocks: 4, gate: make(chan struct{})}
	s := New(Options{Workers: waiters, QueueDepth: 2 * waiters, PrefetchDepth: -1})
	defer s.Close()
	s.addCodec("stub", stub)

	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			data, _, err := s.BlockContext(context.Background(), "stub", 0)
			if err != nil || !bytes.Equal(data, []byte{0, 0}) {
				t.Errorf("Block = %v, %v", data, err)
			}
		}()
	}

	// Wait until one loader is stalled on the gate and all other callers
	// have joined its flight, then release it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.cache.Stats()
		if st.Misses == 1 && st.Deduped == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights never converged: %+v", st)
		}
		runtime.Gosched()
	}
	close(stub.gate)
	wg.Wait()

	if n := stub.calls.Load(); n != 1 {
		t.Fatalf("%d decompressions for %d concurrent misses, want 1", n, waiters)
	}
	hits, misses, deduped := metric(t, s, "blockcache_hits_total"), metric(t, s, "blockcache_misses_total"), metric(t, s, "blockcache_deduped_total")
	if misses != 1 || deduped != waiters-1 {
		t.Fatalf("cache misses %d, deduped %d", misses, deduped)
	}
	// Every demand read is one hit, miss or dedup.
	if n := metric(t, s, "romserver_decompressions_total"); n != 1 || hits+misses+deduped != waiters {
		t.Fatalf("%d decompressions for %d demand reads", n, hits+misses+deduped)
	}
}

// TestLoopingTraceHitRatio replays a memsys-style synthetic fetch trace
// (collapsed to block-change granularity, like a refill engine behind a
// one-line buffer) and checks the serving cache exploits its locality.
func TestLoopingTraceHitRatio(t *testing.T) {
	prog, text := testText(t)
	s := New(Options{CacheBlocks: 8192, PrefetchDepth: 4})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}

	trace := prog.Trace(42, 30000)
	last := -1
	requests := 0
	for _, addr := range trace {
		b := int(addr-codecomp.TextBase) / 32
		if b == last {
			continue
		}
		last = b
		if b >= info.Blocks {
			continue
		}
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
			t.Fatalf("Block(%d): %v", b, err)
		}
		requests++
	}

	cs, decs := s.cache.Stats(), metric(t, s, "romserver_decompressions_total")
	ratio := cs.HitRatio()
	t.Logf("%d block requests, cache %+v, ratio %.4f, decompressions %d", requests, cs, ratio, decs)
	if ratio < 0.9 {
		t.Fatalf("looping-trace hit ratio = %.4f, want > 0.9", ratio)
	}
	// Every block decompresses at most once: the cache never thrashed.
	if decs > int64(info.Blocks) {
		t.Fatalf("%d decompressions for %d blocks", decs, info.Blocks)
	}
	if issued, done := metric(t, s, "romserver_prefetch_issued_total"), metric(t, s, "romserver_prefetch_completed_total"); issued == 0 || done == 0 {
		t.Fatalf("prefetcher idle: %d issued, %d completed", issued, done)
	}
}

func TestPrefetchWarmsSequentialBlocks(t *testing.T) {
	_, text := testText(t)
	s := New(Options{PrefetchDepth: 4})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}

	if _, hit, err := s.BlockContext(context.Background(), "prog", 0); err != nil || hit {
		t.Fatalf("cold read: hit=%v err=%v", hit, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		warm := 0
		for b := 1; b <= 4; b++ {
			if s.cache.Contains(blockKey(s, "prog", b)) {
				warm++
			}
		}
		if warm == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 blocks prefetched", warm)
		}
		time.Sleep(time.Millisecond)
	}
	// A demand read of a prefetched block is a pure cache hit.
	if _, hit, err := s.BlockContext(context.Background(), "prog", 1); err != nil || !hit {
		t.Fatalf("prefetched read: hit=%v err=%v", hit, err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	_, text := testText(t)
	s := New(Options{Workers: 4})
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}

	// Reads racing Close either complete correctly or report ErrClosed —
	// never hang, never return wrong bytes.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := (g*37 + i) % info.Blocks
				data, _, err := s.BlockContext(context.Background(), "prog", b)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("Block(%d): %v", b, err)
					return
				}
				if len(data) == 0 {
					t.Errorf("Block(%d): empty", b)
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if _, _, err := s.BlockContext(context.Background(), "prog", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Block after Close: %v", err)
	}
	if _, err := s.AddImage("another", marshalSAMC(t, text)); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddImage after Close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestConcurrentMixedImages hammers every format from many goroutines and
// verifies bytes; with -race this is the serving layer's thread-safety
// proof on top of the codecs' own.
func TestConcurrentMixedImages(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 256, Workers: 8})
	defer s.Close()

	sadcImg, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"samc": marshalSAMC(t, text),
		"sadc": sadcImg.Marshal(),
		"huff": huffImg.Marshal(),
	} {
		if _, err := s.AddImage(name, data); err != nil {
			t.Fatalf("AddImage(%s): %v", name, err)
		}
	}
	names := []string{"samc", "sadc", "huff"}
	blocks := len(text) / 32

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				name := names[rng.Intn(len(names))]
				b := rng.Intn(blocks)
				data, _, err := s.BlockContext(context.Background(), name, b)
				if err != nil {
					t.Errorf("Block(%s,%d): %v", name, b, err)
					return
				}
				if !bytes.Equal(data, text[b*32:(b+1)*32]) {
					t.Errorf("Block(%s,%d): wrong bytes", name, b)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()

	if hits, misses := metric(t, s, "blockcache_hits_total"), metric(t, s, "blockcache_misses_total"); hits == 0 || misses == 0 {
		t.Fatalf("implausible cache counters: %d hits, %d misses", hits, misses)
	}
}

func TestTraceRecordingAndTrain(t *testing.T) {
	stub := &stubCodec{blocks: 16}
	s := New(Options{PrefetchDepth: -1, TraceBuffer: 8})
	defer s.Close()
	s.addCodec("stub", stub)

	// Nothing recorded yet: Train refuses, Profile refuses.
	if _, err := s.Train("stub"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Train on empty ring: %v", err)
	}
	if _, err := s.Profile("stub"); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("Profile before training: %v", err)
	}

	for _, b := range []int{0, 9, 0, 9, 0, 3} {
		if _, _, err := s.BlockContext(context.Background(), "stub", b); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := s.TraceSnapshot("stub")
	if err != nil || tr.Blocks != 16 || len(tr.Accesses) != 6 {
		t.Fatalf("TraceSnapshot = %+v, %v", tr, err)
	}
	prof, err := s.Train("stub")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Heat[0] != 3 || prof.Heat[9] != 2 || prof.Next[0][9] != 2 {
		t.Fatalf("trained profile = heat %v next %v", prof.Heat, prof.Next)
	}
	if got, err := s.Profile("stub"); err != nil || got != prof {
		t.Fatalf("Profile = %v, %v", got, err)
	}

	// The ring is bounded: hammering one block keeps only the window.
	for i := 0; i < 100; i++ {
		s.BlockContext(context.Background(), "stub", 1)
	}
	tr, _ = s.TraceSnapshot("stub")
	if len(tr.Accesses) != 8 {
		t.Fatalf("ring grew past its bound: %d", len(tr.Accesses))
	}

	// Unknown images error on every tracelab call.
	if _, err := s.Train("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := s.SetPolicy("nope", PolicySpec{Policy: "sequential"}); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}

func TestSetPolicyMarkovPrefetchesTrainedSuccessor(t *testing.T) {
	stub := &stubCodec{blocks: 64}
	s := New(Options{PrefetchDepth: 2, TraceBuffer: 1024})
	defer s.Close()
	s.addCodec("stub", stub)

	// Markov before training is refused.
	if _, err := s.SetPolicy("stub", PolicySpec{Policy: "markov"}); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("untrained markov: %v", err)
	}
	if _, err := s.SetPolicy("stub", PolicySpec{Policy: "warp"}); err == nil {
		t.Fatal("unknown policy accepted")
	}

	// The trace jumps 10 -> 40 every time; train, then switch to markov.
	if _, err := s.TrainFrom("stub", []int{10, 40, 10, 40, 10, 40}); err != nil {
		t.Fatal(err)
	}
	info, err := s.SetPolicy("stub", PolicySpec{Policy: "markov", TopK: 1, Depth: 1})
	if err != nil || info.Policy != "markov" {
		t.Fatalf("SetPolicy = %+v, %v", info, err)
	}
	if pi, err := s.Policy("stub"); err != nil || pi.Policy != "markov" {
		t.Fatalf("Policy = %+v, %v", pi, err)
	}

	// A demand miss on 10 must warm 40 — the trained successor — and not
	// 11, the sequential guess.
	if _, _, err := s.BlockContext(context.Background(), "stub", 10); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !s.cache.Contains(blockKey(s, "stub", 40)) {
		if time.Now().After(deadline) {
			t.Fatal("trained successor never prefetched")
		}
		time.Sleep(time.Millisecond)
	}
	if s.cache.Contains(blockKey(s, "stub", 11)) {
		t.Fatal("markov policy still prefetching sequentially")
	}
	// The warmed read is a demand hit and counts as a prefetch hit.
	if _, hit, err := s.BlockContext(context.Background(), "stub", 40); err != nil || !hit {
		t.Fatalf("warmed read: hit=%v err=%v", hit, err)
	}
	if hits, done := metric(t, s, "blockcache_prefetch_hits_total"), metric(t, s, "romserver_prefetch_completed_total"); hits != 1 || done != 1 {
		t.Fatalf("%d prefetch hits of %d completed, want 1 of 1", hits, done)
	}
	if _, err := s.Profile("stub"); err != nil {
		t.Fatalf("trained image has no profile: %v", err)
	}
}

func TestPrefetchHitAccountingSequential(t *testing.T) {
	stub := &stubCodec{blocks: 16}
	s := New(Options{PrefetchDepth: 4})
	defer s.Close()
	s.addCodec("stub", stub)

	if _, _, err := s.BlockContext(context.Background(), "stub", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.met.prefetchCompleted.Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("prefetches never completed: %d of 4", s.met.prefetchCompleted.Value())
		}
		time.Sleep(time.Millisecond)
	}
	// Two demand reads of warmed blocks, one re-read: prefetch hits count
	// first use only, ordinary hits keep counting.
	s.BlockContext(context.Background(), "stub", 1)
	s.BlockContext(context.Background(), "stub", 2)
	s.BlockContext(context.Background(), "stub", 1)
	if n := metric(t, s, "blockcache_prefetch_hits_total"); n != 2 {
		t.Fatalf("prefetch hits = %d, want 2", n)
	}
	if n := metric(t, s, "blockcache_hits_total"); n != 3 {
		t.Fatalf("cache hits = %d, want 3", n)
	}
}

// TestSetPolicySwapUnderMisses swaps an image between the sequential and
// markov policies while four readers make demand misses that each
// prefetch under whichever policy is current. A swap is one atomic
// store, so under -race this checks that no miss reads a half-built
// policy, and every served block is checked byte for byte.
func TestSetPolicySwapUnderMisses(t *testing.T) {
	const blocks, readers, swaps = 512, 4, 200
	s := New(Options{CacheBlocks: 16, CacheShards: 1, PrefetchDepth: 4, TraceBuffer: 4096})
	defer s.Close()
	s.addCodec("stub", &stubCodec{blocks: blocks})
	rng := rand.New(rand.NewSource(1))
	trace := make([]int, 2048)
	for i := range trace {
		trace[i] = rng.Intn(blocks)
	}
	if _, err := s.TrainFrom("stub", trace); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := range readers {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 200 || !stop.Load(); n++ {
				b := rng.Intn(blocks)
				data, _, err := s.BlockContext(context.Background(), "stub", b)
				if err == nil && !bytes.Equal(data, stubBlock(b)) {
					err = fmt.Errorf("block %d served %v, want %v", b, data, stubBlock(b))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r) + 2)
	}
	for i := range swaps {
		spec := PolicySpec{Policy: "sequential", Depth: 1 + i%8}
		if i%2 == 1 {
			spec = PolicySpec{Policy: "markov", TopK: 1 + i%3, Depth: 1 + i%8}
		}
		if info, err := s.SetPolicy("stub", spec); err != nil || info.Policy != spec.Policy {
			t.Fatalf("swap %d: SetPolicy(%+v) = %+v, %v", i, spec, info, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pi, err := s.Policy("stub"); err != nil || pi.Policy != "markov" {
		t.Fatalf("Policy after the last swap = %+v, %v", pi, err)
	}
	if misses := metric(t, s, "blockcache_misses_total"); misses < readers*100 {
		t.Fatalf("%d demand misses, want at least %d", misses, readers*100)
	}
}

// BenchmarkRomserverMiss measures the full demand-miss path end to end —
// fetch through the worker pool, hardened load under the default load
// deadline, fast-path decode, sidecar verify, cache insert and evict —
// with prefetch, tracing and background re-verification disabled. The
// budget is one allocation per miss: the exact-size copy that goes into
// the cache.
func BenchmarkRomserverMiss(b *testing.B) {
	_, text := testText(b)
	s := New(Options{
		CacheBlocks:      8,
		CacheShards:      1,
		Workers:          1,
		PrefetchDepth:    -1,
		TraceBuffer:      -1,
		ReverifyInterval: -1,
	})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(b, text))
	if err != nil {
		b.Fatal(err)
	}
	if info.Blocks <= 16 {
		b.Fatalf("image too small to defeat the cache: %d blocks", info.Blocks)
	}
	// Warm the decode pools and the cache's entry freelist.
	for i := 0; i < info.Blocks; i++ {
		if _, _, err := s.BlockContext(context.Background(), "prog", i); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(info.OrigSize / info.Blocks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sequential rotation over far more blocks than the cache holds:
		// every access is a genuine miss plus an eviction.
		_, hit, err := s.BlockContext(context.Background(), "prog", i%info.Blocks)
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			b.Fatal("expected a cache miss")
		}
	}
}
