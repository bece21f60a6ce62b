package romserver

// Tests for the pipelined whole-image read (WriteText): byte-exactness
// on every codec, one dispatch per cold window, one decode per block,
// fault and migration safety, and the early-return teardown (context
// cancelled, writer failed, decode failed) with windows still in flight.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"codecomp"
	"codecomp/internal/faultinj"
	"codecomp/internal/overload"
)

// textImages registers one image per codec family over text and
// returns their names. The tiered image's 128-byte blocks leave a short
// last block.
func textImages(t *testing.T, s *Server, text []byte) []string {
	t.Helper()
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"samc":   marshalSAMC(t, text),
		"rans":   marshalRANS(t, text),
		"huff":   huffImg.Marshal(),
		"tiered": marshalTiered(t, text),
	} {
		if _, err := s.AddImage(name, data); err != nil {
			t.Fatalf("AddImage(%s): %v", name, err)
		}
	}
	return []string{"samc", "rans", "huff", "tiered"}
}

// TestWriteTextPipelined writes every codec's cold image byte-exact in
// at most one dispatch per window and one decode per block, warm with
// none, with one worker and with a cache smaller than one window; then
// under bit flips and during tier migrations.
func TestWriteTextPipelined(t *testing.T) {
	_, text := testText(t)
	if len(text)%128 == 0 {
		t.Fatalf("text length %d leaves the tiered image no short last block", len(text))
	}
	for _, tc := range []struct {
		name string
		opts Options
		// warm: the cache holds every image, so a second pass decodes
		// nothing.
		warm bool
	}{
		{"default", Options{}, true},
		{"one-worker", Options{Workers: 1}, true},
		{"cache-below-window", Options{CacheBlocks: 8, CacheShards: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			defer s.Close()
			for _, name := range textImages(t, s, text) {
				info, _ := s.Image(name)
				windows := (info.Blocks + textWindow - 1) / textWindow
				dispatches, decodes := s.met.rangeDispatches.Value(), s.met.decompressions.Value()
				got, err := fullText(s, name)
				if err != nil || !bytes.Equal(got, text) {
					t.Fatalf("%s: %d of %d bytes, err %v", name, len(got), len(text), err)
				}
				if d := s.met.rangeDispatches.Value() - dispatches; d > int64(windows) {
					t.Errorf("%s: %d dispatches for %d windows", name, d, windows)
				}
				if d := s.met.decompressions.Value() - decodes; d != int64(info.Blocks) {
					t.Errorf("%s: %d decodes for %d blocks, want one each", name, d, info.Blocks)
				}
				if !tc.warm {
					continue
				}
				dispatches, decodes = s.met.rangeDispatches.Value(), s.met.decompressions.Value()
				if got, err := fullText(s, name); err != nil || !bytes.Equal(got, text) {
					t.Fatalf("%s warm: %d bytes, err %v", name, len(got), err)
				}
				if d, n := s.met.rangeDispatches.Value()-dispatches, s.met.decompressions.Value()-decodes; d != 0 || n != 0 {
					t.Errorf("%s warm: %d dispatches, %d decodes; want none", name, d, n)
				}
			}
			if got := s.cache.Stats().LeasesActive; got != 0 {
				t.Errorf("LeasesActive = %d after the reads", got)
			}
		})
	}
	t.Run("bit-flips", testWriteTextUnderBitFlips)
	t.Run("during-migration", testWriteTextDuringMigration)
}

// testWriteTextUnderBitFlips arms a bit-flip injector: every pass either
// writes the exact program or stops with an error, and whatever it wrote
// before stopping is an exact prefix.
func testWriteTextUnderBitFlips(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 8, CacheShards: 1, ReverifyInterval: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 3, BitFlipRate: 0.05}); err != nil {
		t.Fatal(err)
	}
	exact := 0
	for pass := 0; pass < 8; pass++ {
		var buf bytes.Buffer
		n, err := s.WriteText("prog", &buf)
		if n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), text[:buf.Len()]) {
			t.Fatalf("pass %d: wrote %d bytes that are not a prefix of the program (err %v)", pass, n, err)
		}
		if err == nil {
			if buf.Len() != len(text) {
				t.Fatalf("pass %d: %d of %d bytes without an error", pass, buf.Len(), len(text))
			}
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("no pass succeeded; fault rate too high for the test to mean anything")
	}
	if metric(t, s, "romserver_corrupt_blocks_total") == 0 {
		t.Fatal("no flipped block was detected; the injector never fired")
	}
}

// testWriteTextDuringMigration loops WriteText while recompression
// passes move the tiered image's blocks between tiers in both
// directions: every pass must be byte-exact.
func testWriteTextDuringMigration(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 64, Tiering: &TieringOptions{Interval: -1}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}
	// Two readers make a fixed number of passes while recompression
	// rounds run until both are done (and at least two rounds run).
	const passes = 20
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				got, err := fullText(s, "prog")
				if err != nil || !bytes.Equal(got, text) {
					t.Errorf("reader %d pass %d: %d bytes, err %v", g, pass, len(got), err)
					return
				}
			}
		}()
	}
	var readersDone atomic.Bool
	go func() {
		wg.Wait()
		readersDone.Store(true)
	}()
	all := make([]int, info.Blocks)
	for b := range all {
		all[b] = b
	}
	migrated := 0
	for round := 0; round < 2 || !readersDone.Load(); round++ {
		// Alternate a hot-promoting profile with an all-cold one, so
		// blocks migrate in both directions.
		trace := all
		if round%2 == 0 {
			trace = skewedTrace(info.Blocks, max(info.Blocks/8, 1), 8000)
		}
		if _, err := s.TrainFrom("prog", trace); err != nil {
			t.Error(err)
			break
		}
		st, err := s.Recompress("prog")
		if err != nil {
			t.Error(err)
			break
		}
		migrated += st.Migrated
	}
	wg.Wait()
	if migrated == 0 {
		t.Fatal("no block migrated; the test raced nothing")
	}
}

// cancelWriter collects what it is given and cancels a context once it
// holds at least after bytes.
type cancelWriter struct {
	bytes.Buffer
	after  int
	cancel context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	if w.Len() >= w.after {
		w.cancel()
	}
	return n, err
}

// TestWriteTextContextCancel cancels the request after the first window
// is written: the call returns context.Canceled, no further window is
// dispatched, and the decodes stop well short of the image.
func TestWriteTextContextCancel(t *testing.T) {
	_, text := testText(t)
	const workers = 2
	s := New(Options{Workers: workers, PrefetchDepth: -1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks < 4*textWindow {
		t.Fatalf("image too small: %d blocks", info.Blocks)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{after: textWindow * 32, cancel: cancel}
	n, err := s.WriteTextContext(ctx, "prog", w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != int64(w.Len()) || !bytes.Equal(w.Bytes(), text[:w.Len()]) {
		t.Fatalf("wrote %d bytes that are not a prefix of the program", n)
	}
	// The windows already in flight when the client left may finish;
	// nothing after them is dispatched.
	if d := s.met.rangeDispatches.Value(); d > workers {
		t.Errorf("%d dispatches after the cancel, want at most %d", d, workers)
	}
	if d := s.met.decompressions.Value(); d > workers*textWindow {
		t.Errorf("%d decodes of %d blocks after the cancel, want at most %d", d, info.Blocks, workers*textWindow)
	}
}

// failWriter accepts limit bytes and then fails every write.
type failWriter struct {
	bytes.Buffer
	limit int
}

var errWriterFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.Len()+len(p) > w.limit {
		return 0, errWriterFull
	}
	return w.Buffer.Write(p)
}

// TestWriteTextEarlyError stops the pipeline with windows still in
// flight, once by a failing writer and once by a block that cannot be
// decoded: the call returns the error after an exact prefix, every
// lease of the abandoned windows is released, and the server keeps
// serving the whole image afterwards.
func TestWriteTextEarlyError(t *testing.T) {
	_, text := testText(t)
	s := New(Options{Workers: 4, ReverifyInterval: -1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the odd windows so the pipeline holds leases when it stops.
	for first := textWindow; first < info.Blocks; first += 2 * textWindow {
		v, err := s.RangeView(context.Background(), "prog", first, min(first+textWindow, info.Blocks)-1)
		if err != nil {
			t.Fatal(err)
		}
		v.Close()
	}
	checkTorndown := func(what string, written []byte) {
		t.Helper()
		if !bytes.Equal(written, text[:len(written)]) {
			t.Fatalf("%s: %d written bytes are not a prefix of the program", what, len(written))
		}
		if got := s.cache.Stats().LeasesActive; got != 0 {
			t.Fatalf("%s: LeasesActive = %d after the call returned", what, got)
		}
	}

	fw := &failWriter{limit: textWindow*32 + 100}
	if _, err := s.WriteText("prog", fw); !errors.Is(err, errWriterFull) {
		t.Fatalf("failing writer: err = %v", err)
	}
	checkTorndown("failing writer", fw.Bytes())

	// Window 6 is neither warmed above nor dispatched by the failing
	// writer, which stops in window 1 with windows 0-4 dispatched.
	bad := 6*textWindow + 5
	if bad >= info.Blocks {
		t.Fatalf("image too small: %d blocks", info.Blocks)
	}
	if err := s.SetFaults("prog", &faultinj.Options{Seed: 1, ErrorBlocks: []int{bad}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteText("prog", &buf); err == nil {
		t.Fatal("undecodable block: no error")
	}
	checkTorndown("undecodable block", buf.Bytes())
	if buf.Len() > bad*32 {
		t.Fatalf("wrote %d bytes, past the undecodable block at %d", buf.Len(), bad*32)
	}

	if err := s.SetFaults("prog", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := fullText(s, "prog"); err != nil || !bytes.Equal(got, text) {
		t.Fatalf("after the early errors: %d bytes, err %v", len(got), err)
	}
}

// TestWriteTextFragmentedUnderOverload reads the image with every other
// block cached, so each window holds 32 one-block miss runs, through the
// bounded admission queue the overload layer turns on (4 workers, 16
// slots): each window must still take one ticket, or a single window
// fills the queue and the read is rejected.
func TestWriteTextFragmentedUnderOverload(t *testing.T) {
	_, text := testText(t)
	s := New(Options{Workers: 4, PrefetchDepth: -1, Overload: &overload.Config{}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < info.Blocks; b += 2 {
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
			t.Fatal(err)
		}
	}
	dispatches := s.met.rangeDispatches.Value()
	got, err := fullText(s, "prog")
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("%d of %d bytes, err %v", len(got), len(text), err)
	}
	if d, windows := s.met.rangeDispatches.Value()-dispatches, (info.Blocks+textWindow-1)/textWindow; d != int64(windows) {
		t.Errorf("%d dispatches for %d windows, want one each", d, windows)
	}
	if d := s.met.decompressions.Value(); d != int64(info.Blocks) {
		t.Errorf("%d decodes for %d blocks, want one each", d, info.Blocks)
	}
}
