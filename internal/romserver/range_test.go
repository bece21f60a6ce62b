package romserver

// Tests for the batched range-read path: byte-exactness, worker-pool
// amortization (one dispatch per contiguous miss-run), and — the pinned
// regression — accounting neutrality: a batched range read must not move
// the demand hit/miss/dedup counters or the prefetch-accuracy stats,
// because it reads cached blocks with Peek and inserts decoded ones with
// the neutral Put.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"codecomp"
	"codecomp/internal/faultinj"
)

func marshalRANS(t testing.TB, text []byte) []byte {
	t.Helper()
	img, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return img.Marshal()
}

// rangeBytes reads blocks [first,last] through RangeView and returns
// their concatenated bytes and how the read was served.
func rangeBytes(s *Server, name string, first, last int) ([]byte, RangeStats, error) {
	v, err := s.RangeView(context.Background(), name, first, last)
	if err != nil {
		return nil, RangeStats{}, err
	}
	defer v.Close()
	return v.AppendTo(nil), v.Stats(), nil
}

func TestRangeBatchedByteExactAndAmortized(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 4096, PrefetchDepth: -1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks < 24 {
		t.Fatalf("image too small: %d blocks", info.Blocks)
	}

	// Warm a scattered subset via demand reads so the range spans cached
	// blocks and several distinct miss-runs.
	warm := []int{6, 7, 12}
	for _, b := range warm {
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
			t.Fatal(err)
		}
	}
	before, entriesBefore := s.cache.Stats(), s.cache.Len()

	first, last := 4, 19
	got, st, err := rangeBytes(s, "prog", first, last)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text[first*32:(last+1)*32]) {
		t.Fatalf("rangeBytes(%d,%d) output mismatch: %d bytes", first, last, len(got))
	}

	// Amortization: cached {6,7,12} split [4,19] into miss-runs [4,5],
	// [8,11], [13,19] — three pool tickets for sixteen blocks.
	if st.Blocks != 16 || st.CachedBlocks != 3 || st.DecodedBlocks != 13 {
		t.Fatalf("RangeStats = %+v", st)
	}
	if st.Dispatches != 3 {
		t.Fatalf("Dispatches = %d, want 3 (one per contiguous miss-run)", st.Dispatches)
	}
	if st.Dispatches >= st.Blocks {
		t.Fatalf("batched path used %d dispatches for %d blocks — no better than per-block reads",
			st.Dispatches, st.Blocks)
	}

	// Accounting neutrality: the Peek reads and Put inserts above must not
	// have moved any demand or prefetch counter.
	after := s.cache.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses ||
		after.Deduped != before.Deduped || after.PrefetchHits != before.PrefetchHits {
		t.Fatalf("range read distorted cache accounting:\n before %+v\n after  %+v", before, after)
	}
	if n := s.cache.Len(); n != entriesBefore+13 {
		t.Fatalf("Len = %d, want %d (13 decoded blocks inserted)", n, entriesBefore+13)
	}

	// The inserted blocks serve later demand traffic as ordinary hits.
	if _, hit, err := s.BlockContext(context.Background(), "prog", 9); err != nil || !hit {
		t.Fatalf("Block(9) after range: hit=%v err=%v, want cache hit", hit, err)
	}

	// A fully cached re-read takes zero dispatches.
	got2, st2, err := rangeBytes(s, "prog", first, last)
	if err != nil || !bytes.Equal(got2, got) {
		t.Fatalf("warm re-read: %v", err)
	}
	if st2.Dispatches != 0 || st2.CachedBlocks != 16 || st2.DecodedBlocks != 0 {
		t.Fatalf("warm RangeStats = %+v, want all cached", st2)
	}

	// Error surfaces match the per-block API.
	if _, _, err := rangeBytes(s, "prog", 5, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("rangeBytes(5,2): %v", err)
	}
	if _, _, err := rangeBytes(s, "prog", 0, info.Blocks); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("rangeBytes(0,N): %v", err)
	}
	if _, _, err := rangeBytes(s, "nope", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rangeBytes(nope): %v", err)
	}
}

// TestRangeBatchedRANS serves a rANS image through the batched path:
// cold full-image read, byte-exact, then a warm re-read from cache.
func TestRangeBatchedRANS(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 8192, PrefetchDepth: -1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalRANS(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != codecomp.FormatRANS {
		t.Fatalf("format = %q, want %q", info.Format, codecomp.FormatRANS)
	}
	got, st, err := rangeBytes(s, "prog", 0, info.Blocks-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatalf("cold rANS range: %d bytes, want %d", len(got), len(text))
	}
	if st.Dispatches != 1 || st.DecodedBlocks != info.Blocks {
		t.Fatalf("cold RangeStats = %+v, want one dispatch decoding all %d blocks", st, info.Blocks)
	}
	if _, st, err = rangeBytes(s, "prog", 0, info.Blocks-1); err != nil || st.Dispatches != 0 {
		t.Fatalf("warm rANS range: %+v err=%v", st, err)
	}
}

// TestRangeBatchedUnderFaults is the chaos drill for the batched path: a
// rANS image under injected bit flips and transient errors must still
// serve byte-exact ranges — the run decoder goes through the same
// hardened loadVerified path (sidecar verify, retries) as demand reads.
func TestRangeBatchedUnderFaults(t *testing.T) {
	_, text := testText(t)
	s := New(Options{
		CacheBlocks:   8192,
		PrefetchDepth: -1,
		Workers:       4,
		LoadAttempts:  6, // enough retries that injected faults recover instead of failing the run
	})
	defer s.Close()
	info, err := s.AddImage("prog", marshalRANS(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 42, BitFlipRate: 0.05, TransientRate: 0.02}); err != nil {
		t.Fatal(err)
	}
	got, _, err := rangeBytes(s, "prog", 0, info.Blocks-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatal("batched range served corrupt bytes under fault injection")
	}
	if metric(t, s, "romserver_corrupt_blocks_total") == 0 && metric(t, s, "romserver_retries_total") == 0 {
		t.Fatal("fault injection never fired — chaos drill proved nothing")
	}
}
