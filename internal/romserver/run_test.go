package romserver

// Tests for the cold range run's critical path: the worker's run-scoped
// load accounting (published when the ticket ends, on every exit path),
// the verified blocks' cache inserts at View.Close, and View.WriteTo's
// byte count.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// TestRunAcctCancelStopsAtNextBlock: a context cancelled while a run
// decodes stops the run at its next block, and the blocks the run did
// decode are published and counted once the ticket ends.
func TestRunAcctCancelStopsAtNextBlock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 3
	c := &stubCodec{blocks: 10, decode: func(i int) ([]byte, error) {
		if i == cancelAt {
			cancel()
		}
		return stubBlock(i), nil
	}}
	s := New(Options{Workers: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", c)
	before := s.loadCounts()
	v, err := s.ReadAtContext(ctx, "img", 0, 2*c.blocks)
	if err == nil {
		v.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitCond(t, "the run to end", func() bool { return s.inflight.Load() == 0 })
	const done = cancelAt + 1
	if n := c.calls.Load(); n != done {
		t.Fatalf("run decoded %d blocks, want it to stop after block %d", n, cancelAt)
	}
	d := s.loadCounts().sub(before)
	if d.decode != done || d.verify != done || d.decompressions != done {
		t.Fatalf("run observed %+v, want %d decodes, verifies and decompressions", d, done)
	}
	if n := metric(t, s, "romserver_decompressions_total"); n != done {
		t.Fatalf("romserver_decompressions_total = %d, want %d", n, done)
	}
}

// TestRunAcctDeadlineBoundsEachBlock: a request deadline tighter than
// LoadTimeout bounds every block of a run, not just its first: a block
// wedged mid-run is answered by the watchdog at the request deadline,
// and the one-worker pool is restored long before LoadTimeout.
func TestRunAcctDeadlineBoundsEachBlock(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	c := &stubCodec{blocks: 4, decode: func(i int) ([]byte, error) {
		if i == 2 {
			<-gate
		}
		return stubBlock(i), nil
	}}
	s := New(Options{Workers: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1, LoadTimeout: time.Minute})
	defer s.Close()
	s.addCodec("wedged", c)
	s.addCodec("good", &stubCodec{blocks: 4})

	ctx, cancel := context.WithTimeout(context.Background(), wedgeTimeout)
	defer cancel()
	start := time.Now()
	v, err := s.ReadAtContext(ctx, "wedged", 0, 8)
	if err == nil {
		v.Close()
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitCond(t, "the watchdog to fire", func() bool { return metric(t, s, "romserver_decode_timeouts_total") == 1 })
	if _, _, err := s.BlockContext(context.Background(), "good", 1); err != nil {
		t.Fatalf("healthy image after the wedge: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("pool restored after %v; the request deadline was %v", d, wedgeTimeout)
	}
}

// TestRunAcctFlushedAfterRetire: the observations a run made before
// the watchdog retired its worker are published when the retired
// worker's decode finally returns, and not before.
func TestRunAcctFlushedAfterRetire(t *testing.T) {
	gate := make(chan struct{})
	c := &stubCodec{blocks: 4, decode: func(i int) ([]byte, error) {
		if i == 2 {
			<-gate
		}
		return stubBlock(i), nil
	}}
	s := New(Options{Workers: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1, LoadTimeout: wedgeTimeout})
	defer s.Close()
	s.addCodec("wedged", c)
	before := s.loadCounts()
	v, err := s.RangeView(context.Background(), "wedged", 0, 3)
	if err == nil {
		v.Close()
	}
	if !errors.Is(err, ErrDecompressTimeout) {
		t.Fatalf("err = %v, want ErrDecompressTimeout", err)
	}
	// The retired worker is still inside block 2's decode: its ticket
	// has not ended, so nothing is published yet.
	if d := s.loadCounts().sub(before); d != (loadCounts{}) {
		t.Fatalf("observations published before the retired ticket ended: %+v", d)
	}
	close(gate)
	// Blocks 0 and 1 decoded and verified; block 2's attempt counts as
	// a decompression and a block load, but it outlived its watchdog,
	// so it has no decode or verify phase.
	want := loadCounts{decode: 2, verify: 2, load: 3, decompressions: 3}
	waitCond(t, "the retired worker to publish", func() bool { return s.loadCounts().sub(before) == want })
	if n := metric(t, s, "romserver_decompressions_total"); n != 3 {
		t.Fatalf("romserver_decompressions_total = %d, want 3", n)
	}
}

// TestCloseInsertsVerifiedBlocks: a read's verified blocks land in the
// cache when its view is closed, not before, and then serve demand
// reads as hits; the partially decoded tail never lands.
func TestCloseInsertsVerifiedBlocks(t *testing.T) {
	_, text := testText(t)
	s := New(Options{PrefetchDepth: -1, ReverifyInterval: -1})
	defer s.Close()
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	img, _ := s.lookup("prog")
	const full = 8 // blocks 0..7 whole, then 5 bytes of block 8
	end := int(img.offsets[full]) + 5
	v, err := s.ReadAtContext(context.Background(), "prog", 0, end)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.AppendTo(nil); !bytes.Equal(got, text[:end]) {
		t.Fatal("wrong bytes")
	}
	for b := 0; b <= full; b++ {
		if s.cache.Contains(img.key(b)) {
			t.Fatalf("block %d cached before Close", b)
		}
	}
	v.Close()
	if s.cache.Contains(img.key(full)) {
		t.Fatal("partially decoded tail block cached")
	}
	for b := 0; b < full; b++ {
		if _, hit, err := s.BlockContext(context.Background(), "prog", b); err != nil || !hit {
			t.Fatalf("block %d after Close: hit=%v err=%v, want a hit", b, hit, err)
		}
	}
}

// TestCloseInsertsOnlyVerifiedAfterError: a view closed after an error
// inserts only the verified blocks it collected before the error — the
// failing run's blocks up to its failure, nothing of a later run it
// never collected.
func TestCloseInsertsOnlyVerifiedAfterError(t *testing.T) {
	c := &stubCodec{blocks: 8, decode: func(i int) ([]byte, error) {
		if i == 1 {
			return nil, errors.New("permanent")
		}
		return stubBlock(i), nil
	}}
	s := New(Options{Workers: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1, LoadAttempts: 1})
	defer s.Close()
	img := s.addCodec("img", c)
	// A cached block 3 splits [0,7] into runs [0,2] and [4,7]; the
	// first fails at block 1.
	if _, _, err := s.BlockContext(context.Background(), "img", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RangeView(context.Background(), "img", 0, 7); err == nil {
		t.Fatal("range over a failing block succeeded")
	}
	for b := 0; b < 8; b++ {
		want := b == 0 || b == 3
		if got := s.cache.Contains(img.key(b)); got != want {
			t.Errorf("block %d cached = %v, want %v", b, got, want)
		}
	}
}

// TestCloseInsertsWriteText: a whole-image text read leaves every
// window's blocks cached.
func TestCloseInsertsWriteText(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 1 << 14, PrefetchDepth: -1, ReverifyInterval: -1})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks <= 2*textWindow {
		t.Fatalf("image too small: %d blocks", info.Blocks)
	}
	if _, err := s.WriteTextContext(context.Background(), "prog", io.Discard); err != nil {
		t.Fatal(err)
	}
	img, _ := s.lookup("prog")
	for b := 0; b < info.Blocks; b++ {
		if !s.cache.Contains(img.key(b)) {
			t.Fatalf("block %d not cached after WriteText", b)
		}
	}
}

// TestCloseInsertsNothingForRemovedImage: a view still open when its
// image is removed or replaced inserts nothing at Close — no reader
// could hit blocks under the dead registration's id.
func TestCloseInsertsNothingForRemovedImage(t *testing.T) {
	_, text := testText(t)
	data := marshalSAMC(t, text)
	for _, replace := range []bool{false, true} {
		s := New(Options{PrefetchDepth: -1, ReverifyInterval: -1})
		if _, err := s.AddImage("prog", data); err != nil {
			t.Fatal(err)
		}
		v, err := s.RangeView(context.Background(), "prog", 0, 15)
		if err != nil {
			t.Fatal(err)
		}
		if replace {
			_, err = s.AddImage("prog", data)
		} else {
			err = s.RemoveImage("prog")
		}
		if err != nil {
			t.Fatal(err)
		}
		v.Close()
		if n := s.cache.Len(); n != 0 {
			t.Errorf("replace=%v: %d blocks cached after Close, want 0", replace, n)
		}
		s.Close()
	}
}

// recordWriter records every Write it accepts. It accepts at most
// limit bytes in total (negative: unlimited); past that it accepts what
// fits and fails with err, or, with a nil err, returns a short count
// and no error, breaking io.Writer's contract.
type recordWriter struct {
	buf    bytes.Buffer
	writes []int
	limit  int
	err    error
}

func (w *recordWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if w.limit < 0 || w.buf.Len()+len(p) <= w.limit {
		return w.buf.Write(p)
	}
	n, _ := w.buf.Write(p[:w.limit-w.buf.Len()])
	return n, w.err
}

// partsView builds a view of the given part sizes over distinct bytes,
// and the bytes it must write.
func partsView(sizes ...int) (*View, []byte) {
	v := &View{}
	var want []byte
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		v.parts = append(v.parts, p)
		want = append(want, p...)
	}
	return v, want
}

func repeat(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

// TestViewWriteToBytes: a view written to a non-socket writer is
// byte-identical, one Write per part, for a page of blocks, a /text
// window's worth, many windows' worth, uneven and large parts.
func TestViewWriteToBytes(t *testing.T) {
	for _, sizes := range [][]int{
		nil,
		{17},
		repeat(129, 32),
		repeat(textWindow, 32),
		repeat(5*textWindow+3, 32),
		repeat(1000, 50),
		{100, 40000, 7},
	} {
		v, want := partsView(sizes...)
		w := &recordWriter{limit: -1}
		n, err := v.WriteTo(w)
		if err != nil || n != int64(len(want)) || !bytes.Equal(w.buf.Bytes(), want) {
			t.Errorf("%d parts: wrote %d bytes (err %v), want %d identical", len(sizes), n, err, len(want))
		}
		if len(w.writes) != len(sizes) {
			t.Errorf("%d parts: %d writes, want one per part", len(sizes), len(w.writes))
		}
	}
}

// TestViewWriteToShortWrite: when the writer stops accepting bytes,
// with an error or with a short count, WriteTo returns exactly the
// bytes the writer accepted.
func TestViewWriteToShortWrite(t *testing.T) {
	full := errors.New("writer full")
	sizes := append(repeat(100, 32), 40000, 9)
	_, want := partsView(sizes...)
	for _, limit := range []int{0, 1, 31, 32, 33, 3199, 3200, 3201, 20000, len(want) - 1} {
		for _, werr := range []error{full, nil} {
			v, _ := partsView(sizes...)
			w := &recordWriter{limit: limit, err: werr}
			n, err := v.WriteTo(w)
			wantErr := werr
			if wantErr == nil {
				wantErr = io.ErrShortWrite
			}
			if n != int64(limit) || !errors.Is(err, wantErr) || !bytes.Equal(w.buf.Bytes(), want[:limit]) {
				t.Errorf("limit %d, writer error %v: WriteTo = %d, %v; want %d, %v", limit, werr, n, err, limit, wantErr)
			}
		}
	}
}
