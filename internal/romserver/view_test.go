package romserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"codecomp"
	"codecomp/internal/faultinj"
)

// viewImages builds one image per codec family over the same text —
// SAMC and Huffman have fixed-size blocks, SADC packs whole units and
// so has variable-size blocks, the case the offset table exists for.
func viewImages(t *testing.T, s *Server, text []byte) []string {
	t.Helper()
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
	return []string{"samc", "sadc", "huff"}
}

func readAll(t *testing.T, s *Server, name string, off, n int) []byte {
	t.Helper()
	v, err := s.ReadAtContext(context.Background(), name, off, n)
	if err != nil {
		t.Fatalf("ReadAt(%s, %d, %d): %v", name, off, n, err)
	}
	defer v.Close()
	if v.Len() != n {
		t.Fatalf("ReadAt(%s, %d, %d): Len() = %d", name, off, n, v.Len())
	}
	got := v.AppendTo(nil)
	var buf bytes.Buffer
	if m, err := s.mustView(t, name, off, n).writeAndClose(&buf); err != nil || m != int64(n) {
		t.Fatalf("WriteTo(%s, %d, %d) = %d, %v", name, off, n, m, err)
	}
	if !bytes.Equal(buf.Bytes(), got) {
		t.Fatalf("ReadAt(%s, %d, %d): WriteTo and AppendTo diverge", name, off, n)
	}
	return got
}

// mustView/writeAndClose keep readAll readable: a second view of the
// same window, consumed through the io.WriterTo path.
func (s *Server) mustView(t *testing.T, name string, off, n int) *viewCloser {
	t.Helper()
	v, err := s.ReadAtContext(context.Background(), name, off, n)
	if err != nil {
		t.Fatal(err)
	}
	return &viewCloser{v}
}

type viewCloser struct{ v *View }

func (vc *viewCloser) writeAndClose(w *bytes.Buffer) (int64, error) {
	defer vc.v.Close()
	return vc.v.WriteTo(w)
}

func TestReadAtByteExact(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 16, CacheShards: 1})
	defer s.Close()
	names := viewImages(t, s, text)

	rng := rand.New(rand.NewSource(7))
	for _, name := range names {
		// Fixed windows hitting the edges, then a random sweep: cold
		// cache first, then the same window warm.
		windows := [][2]int{
			{0, 0}, {0, 1}, {0, len(text)}, {len(text) - 1, 1},
			{1, 31}, {31, 2}, {32, 32}, {17, 99},
		}
		for i := 0; i < 40; i++ {
			off := rng.Intn(len(text))
			n := rng.Intn(len(text) - off + 1)
			windows = append(windows, [2]int{off, n})
		}
		for _, w := range windows {
			off, n := w[0], w[1]
			for pass := 0; pass < 2; pass++ {
				got := readAll(t, s, name, off, n)
				if !bytes.Equal(got, text[off:off+n]) {
					t.Fatalf("%s: ReadAt(%d, %d) pass %d: wrong bytes", name, off, n, pass)
				}
			}
		}
	}

	// Error surfaces.
	if _, err := s.ReadAtContext(context.Background(), "samc", -1, 4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt(-1): %v", err)
	}
	if _, err := s.ReadAtContext(context.Background(), "samc", 0, len(text)+1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt(past end): %v", err)
	}
	if _, err := s.ReadAtContext(context.Background(), "samc", len(text), 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt(at end, 1): %v", err)
	}
	if _, err := s.ReadAtContext(context.Background(), "nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt(nope): %v", err)
	}

	st := s.Stats()
	if st.Subblock.Reads == 0 || st.Subblock.Bytes == 0 {
		t.Fatalf("subblock rollup not counted: %+v", st.Subblock)
	}
}

// TestReadAtPartialTailNotCached pins the partial-decode contract: a
// cold read ending mid-block decodes the tail block only up to the
// requested offset, serves the prefix, and does NOT cache it — while
// every fully covered block lands in the cache as usual.
func TestReadAtPartialTailNotCached(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 32, CacheShards: 1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	img, err := s.lookup("prog")
	if err != nil {
		t.Fatal(err)
	}
	offs := img.offsets

	// [0, end): covers blocks 0..2 fully and ends 7 bytes into block 3.
	end := int(offs[3]) + 7
	v, err := s.ReadAtContext(context.Background(), "prog", 0, end)
	if err != nil {
		t.Fatal(err)
	}
	got := v.AppendTo(nil)
	decoded := v.DecodedBytes()
	v.Close()
	if !bytes.Equal(got, text[:end]) {
		t.Fatal("partial-tail read: wrong bytes")
	}
	if decoded >= int(offs[4]) {
		t.Fatalf("partial-tail read decoded %d bytes, want < %d (covering blocks' total)", decoded, offs[4])
	}
	for b := 0; b < 3; b++ {
		if !s.cache.Contains(img.key(b)) {
			t.Fatalf("fully covered block %d not cached", b)
		}
	}
	if s.cache.Contains(img.key(3)) {
		t.Fatal("partially decoded tail block was cached")
	}
	if st := s.Stats().Subblock; st.PartialDecodes == 0 || st.PartialDecodedBytes == 0 {
		t.Fatalf("partial decode not counted: %+v", st)
	}

	// Same read again: blocks 0..2 are leased from the cache, the tail
	// misses again (it was never cached) and is partially decoded again.
	before := s.Stats().Subblock.PartialDecodes
	v, err = s.ReadAtContext(context.Background(), "prog", 0, end)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().CachedBlocks != 3 || v.Stats().DecodedBlocks != 1 {
		t.Fatalf("warm partial read stats = %+v", v.Stats())
	}
	v.Close()
	if got := s.Stats().Subblock.PartialDecodes; got != before+1 {
		t.Fatalf("partial decodes %d, want %d", got, before+1)
	}
}

// TestReadAtFaultedImageStaysVerified pins the safety gate: with a
// fault injector installed (even a benign one), sub-block reads must
// not take the unverifiable partial path — every block decodes through
// the sidecar-verified loader, and bytes stay exact.
func TestReadAtFaultedImageStaysVerified(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 32, CacheShards: 1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 1, TransientRate: 0.2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	served := 0
	for i := 0; i < 40; i++ {
		off := rng.Intn(len(text))
		n := rng.Intn(len(text) - off + 1)
		v, err := s.ReadAtContext(context.Background(), "prog", off, n)
		if err != nil {
			// Transient faults may exhaust retries; a refused read is
			// fine, a wrong one is not.
			continue
		}
		got := v.AppendTo(nil)
		v.Close()
		served++
		if !bytes.Equal(got, text[off:off+n]) {
			t.Fatalf("faulted ReadAt(%d, %d): wrong bytes", off, n)
		}
	}
	if served == 0 {
		t.Fatal("no faulted read succeeded; fault rate too high for the test to mean anything")
	}
	if pd := s.Stats().Subblock.PartialDecodes; pd != 0 {
		t.Fatalf("faulted image took the partial path %d times", pd)
	}
}

// TestRangeViewMatchesRange pins the zero-copy range path, and its
// copied bytes and stats, to the original text of the range.
func TestRangeViewMatchesRange(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 16, CacheShards: 1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{0, 0}, {0, 3}, {2, 5}, {info.Blocks - 2, info.Blocks - 1}, {0, info.Blocks - 1}} {
		want := text[w[0]*32 : min((w[1]+1)*32, len(text))]
		v, err := s.RangeView("prog", w[0], w[1])
		if err != nil {
			t.Fatalf("RangeView(%v): %v", w, err)
		}
		if got := v.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("RangeView(%v): wrong bytes", w)
		}
		if v.Len() != len(want) {
			t.Fatalf("RangeView(%v).Len() = %d, want %d", w, v.Len(), len(want))
		}
		v.Close()
		got, st, err := rangeBytes(s, "prog", w[0], w[1])
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rangeBytes(%v): %v", w, err)
		}
		if st.Blocks != w[1]-w[0]+1 || st.CachedBlocks+st.DecodedBlocks < st.Blocks {
			t.Fatalf("rangeBytes(%v) stats = %+v", w, st)
		}
	}
	if _, err := s.RangeView("prog", 3, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RangeView(3,1): %v", err)
	}
}

// TestViewLeaseLifecycle exercises the lease accounting end to end: an
// open view holds its blocks against eviction (retired, not freed),
// and Close drains every lease gauge back to zero.
func TestViewLeaseLifecycle(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 4, CacheShards: 1, PrefetchDepth: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}

	// Warm blocks 0..3 (a cold view's miss blocks are decode buffers,
	// not leases), then take a view that leases all four from the cache.
	warm, err := s.RangeView("prog", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	v, err := s.RangeView("prog", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().CachedBlocks != 4 {
		t.Fatalf("warm view stats = %+v, want 4 cached", v.Stats())
	}
	if got := s.CacheStats().LeasesActive; got != 4 {
		t.Fatalf("LeasesActive = %d, want 4", got)
	}
	want := v.AppendTo(nil)

	// Blow the leased blocks out of the tiny cache; the view's parts
	// must survive untouched because the leases pin the buffers.
	for b := 4; b < 12; b++ {
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
			t.Fatalf("Block(%d): %v", b, err)
		}
	}
	if got := s.CacheStats().RetiredLeaseBufs; got == 0 {
		t.Fatal("eviction under lease retired no buffers")
	}
	if got := v.AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatal("leased parts changed under eviction")
	}

	v.Close()
	cs := s.CacheStats()
	if cs.LeasesActive != 0 || cs.RetiredLeaseBufs != 0 || cs.RetiredLeaseBytes != 0 {
		t.Fatalf("after Close: active=%d retiredBufs=%d retiredBytes=%d, want all 0",
			cs.LeasesActive, cs.RetiredLeaseBufs, cs.RetiredLeaseBytes)
	}
	v.Close() // second Close is a no-op, not a double release
	if got := s.CacheStats().LeasesActive; got != 0 {
		t.Fatalf("double Close leaked: LeasesActive = %d", got)
	}
}

// TestWriteTextStreams pins the streaming full-text path to the
// materializing one.
func TestWriteTextStreams(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 8, CacheShards: 1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.WriteText("prog", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(text)) || !bytes.Equal(buf.Bytes(), text) {
		t.Fatalf("WriteText wrote %d bytes, want %d exact", n, len(text))
	}
	if _, err := s.WriteText("nope", &buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WriteText(nope): %v", err)
	}
}

// benchServer is the hot-path benchmark configuration: no prefetch, no
// tracing, no background re-verification, the default load deadline —
// the same setup as BenchmarkRomserverMiss.
func benchServer(b *testing.B, cacheBlocks int) *Server {
	b.Helper()
	return New(Options{
		CacheBlocks:      cacheBlocks,
		CacheShards:      1,
		Workers:          1,
		PrefetchDepth:    -1,
		TraceBuffer:      -1,
		ReverifyInterval: -1,
	})
}

// BenchmarkRomserverCachedReadAt measures the zero-copy warm sub-block
// path: a byte window inside one cached block, served as a leased view
// and written to a non-socket writer. The budget is zero allocations
// and zero bytes per op — the whole point of the lease layer.
func BenchmarkRomserverCachedReadAt(b *testing.B) {
	_, text := testText(b)
	s := benchServer(b, 64)
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(b, text)); err != nil {
		b.Fatal(err)
	}
	// Cache the block through the demand path (a sub-block read's
	// partial tail would never be cached), then warm the view pools.
	if _, _, err := s.BlockContext(context.Background(), "prog", 0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		v, err := s.ReadAtContext(context.Background(), "prog", 3, 17)
		if err != nil {
			b.Fatal(err)
		}
		if v.DecodedBytes() != 0 {
			b.Fatal("warm read decoded — block 0 not cached")
		}
		v.Close()
	}
	b.SetBytes(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.ReadAtContext(context.Background(), "prog", 3, 17)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
}

// BenchmarkRomserverWarmRange measures a fully cached multi-block range
// served as a zero-copy view: every block leased, no dispatches, the
// parts written straight out. Same zero-allocation budget.
func BenchmarkRomserverWarmRange(b *testing.B) {
	_, text := testText(b)
	s := benchServer(b, 64)
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(b, text))
	if err != nil {
		b.Fatal(err)
	}
	if info.Blocks < 16 {
		b.Fatalf("image too small: %d blocks", info.Blocks)
	}
	for i := 0; i < 16; i++ {
		v, err := s.RangeView("prog", 0, 15)
		if err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
	b.SetBytes(16 * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.RangeView("prog", 0, 15)
		if err != nil {
			b.Fatal(err)
		}
		if v.Stats().Dispatches != 0 {
			b.Fatal("warm range dispatched")
		}
		if _, err := v.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
}

// BenchmarkRomserverSubblockMiss measures the partial-decode miss path
// on 4 KiB blocks: every read wants only the first 128 bytes of a
// block, the partial result is never cached, so every op is a genuine
// miss — and must decode far less than the whole block. The mean codec
// output per op is exported as decodedB/op; cmd/bench gates it
// strictly below the block size.
func BenchmarkRomserverSubblockMiss(b *testing.B) {
	_, text := testText(b)
	const blockSize = 4096
	img, err := codecomp.CompressHuffman(text, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	s := benchServer(b, 64)
	defer s.Close()
	info, err := s.AddImage("prog", img.Marshal())
	if err != nil {
		b.Fatal(err)
	}
	if info.Blocks < 2 {
		b.Fatalf("image too small for %d-byte blocks: %d blocks", blockSize, info.Blocks)
	}
	// Warm pools only; the read below never populates the cache.
	v, err := s.ReadAtContext(context.Background(), "prog", 0, 128)
	if err != nil {
		b.Fatal(err)
	}
	v.Close()
	b.SetBytes(128)
	b.ReportAllocs()
	b.ResetTimer()
	var decoded int64
	for i := 0; i < b.N; i++ {
		off := (i % 2) * blockSize
		v, err := s.ReadAtContext(context.Background(), "prog", off, 128)
		if err != nil {
			b.Fatal(err)
		}
		if v.DecodedBytes() == 0 {
			b.Fatal("sub-block miss served from cache — partial result was cached")
		}
		decoded += int64(v.DecodedBytes())
		v.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(decoded)/float64(b.N), "decodedB/op")
}

// BenchmarkRomserverColdRange measures a cold 4 KiB page-in: a ReadAt
// over a SAMC image with the default options (load deadline, trace
// recording, sharded cache) whose cache is too small to keep the pages,
// so each op is one miss run of 128 block decodes and verifies. The mean
// decodes per op are exported as decodes/op; cmd/bench gates allocs/op
// at decodes/op + 8 — one cached copy per decoded block plus a fixed
// per-read overhead, nothing per block for the deadline. Every op must
// decode every block its page covers: the three pages only keep missing
// in the two-page cache because the cache stripes consecutive blocks
// across its shards, and a page that turned partly warm would shrink the
// measured work and the alloc budget with it.
func BenchmarkRomserverColdRange(b *testing.B) {
	_, text := testText(b)
	const page = 4096
	s := New(Options{CacheBlocks: 2 * page / 32})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(b, text)); err != nil {
		b.Fatal(err)
	}
	// Three pages cycle through a two-page cache: every read misses.
	pages := len(text) / page
	if pages < 3 {
		b.Fatalf("image too small: %d pages", pages)
	}
	read := func(i int) int {
		v, err := s.ReadAtContext(context.Background(), "prog", (i%3)*page, page)
		if err != nil {
			b.Fatal(err)
		}
		st := v.Stats()
		v.Close()
		if st.DecodedBlocks < st.Blocks {
			b.Fatalf("cold page %d decoded %d of its %d blocks: part of it was cached", i%3, st.DecodedBlocks, st.Blocks)
		}
		return st.DecodedBlocks
	}
	for i := 0; i < 6; i++ {
		read(i)
	}
	b.SetBytes(page)
	b.ReportAllocs()
	b.ResetTimer()
	decodes := 0
	for i := 0; i < b.N; i++ {
		decodes += read(i)
	}
	b.StopTimer()
	if decodes == 0 {
		b.Fatal("cold range read decoded nothing")
	}
	b.ReportMetric(float64(decodes)/float64(b.N), "decodes/op")
}

// BenchmarkRomserverTextCold measures a cold whole-image read: WriteText
// of a SAMC image to io.Discard with the default options except a
// one-window cache. Ops alternate between two registrations of the
// image, so each read finds none of its blocks cached and every window
// is one miss run of decodes and verifies on the pool. It exports
// decodes/op, dispatches/op and windows/op (ceil(blocks/textWindow));
// cmd/bench gates dispatches at one per window and allocs/op at
// decodes/op plus a fixed overhead per window.
func BenchmarkRomserverTextCold(b *testing.B) {
	_, text := testText(b)
	s := New(Options{CacheBlocks: textWindow})
	defer s.Close()
	data := marshalSAMC(b, text)
	names := []string{"a", "b"}
	var info ImageInfo
	for _, name := range names {
		var err error
		if info, err = s.AddImage(name, data); err != nil {
			b.Fatal(err)
		}
	}
	if info.Blocks < 4*textWindow {
		b.Fatalf("image too small: %d blocks", info.Blocks)
	}
	read := func(i int) {
		if _, err := s.WriteText(names[i%2], io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		read(i)
	}
	decodes, dispatches := s.met.decompressions.Value(), s.met.rangeDispatches.Value()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.StopTimer()
	decodes = s.met.decompressions.Value() - decodes
	if decodes == 0 {
		b.Fatal("cold text read decoded nothing")
	}
	b.ReportMetric(float64(decodes)/float64(b.N), "decodes/op")
	b.ReportMetric(float64(s.met.rangeDispatches.Value()-dispatches)/float64(b.N), "dispatches/op")
	b.ReportMetric(float64((info.Blocks+textWindow-1)/textWindow), "windows/op")
}

// TestReadAtHugeLenOutOfRange pins the byte-window bound against
// overflow: a len so large that off+len wraps must be out of range
// before anything decodes, not a whole-image decode that then fails.
func TestReadAtHugeLenOutOfRange(t *testing.T) {
	_, text := testText(t)
	s := New(Options{PrefetchDepth: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{1, math.MaxInt}, {len(text), math.MaxInt}, {math.MaxInt, 1}} {
		if _, err := s.ReadAtContext(context.Background(), "prog", w[0], w[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("ReadAt(%d, %d) = %v, want ErrOutOfRange", w[0], w[1], err)
		}
	}
	st := s.Stats()
	if st.Images[0].Decompressions != 0 || st.Faults.PanicsRecovered != 0 {
		t.Fatalf("out-of-range reads decoded %d blocks and recovered %d panics, want 0 and 0",
			st.Images[0].Decompressions, st.Faults.PanicsRecovered)
	}
}
