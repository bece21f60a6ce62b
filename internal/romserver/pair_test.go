package romserver

// Tests for the paired bulk decode: an unmerged miss run loads two
// adjacent blocks through one call of the codec's two-lane kernel
// (loadPair), and everything a pair cannot cover, or a pair that fails,
// goes through the single-block path.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"codecomp"
	"codecomp/internal/faultinj"
)

// pairCounter is a SAMC image whose two-lane kernel counts its calls.
type pairCounter struct {
	*codecomp.SAMCImage
	pairs atomic.Int64
}

func (c *pairCounter) AppendBlockPair(dstA, dstB []byte, i int) ([]byte, []byte, error) {
	c.pairs.Add(1)
	return c.SAMCImage.AppendBlockPair(dstA, dstB, i)
}

// pairServer registers text as the SAMC image "prog" and puts a
// pairCounter in front of its codec.
func pairServer(t *testing.T, opts Options, text []byte) (*Server, *pairCounter) {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() { s.Close() })
	if _, err := s.AddImage("prog", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	img, err := s.lookup("prog")
	if err != nil {
		t.Fatal(err)
	}
	pc := &pairCounter{SAMCImage: img.codec.(*codecomp.SAMCImage)}
	img.codec = pc
	return s, pc
}

// TestBulkPairReadsByteExact reads block ranges and byte windows whose
// miss runs pair up in every way a run can end, and checks the bytes,
// the number of two-lane calls, and that the phase histograms keep one
// sample per decoded block. With a fault injector armed, the pair path
// stays off, and the injector sees exactly the loads the single path
// makes: its hook counts the faults a reference injector with the same
// seed counts when driven one block at a time, attempt by attempt.
func TestBulkPairReadsByteExact(t *testing.T) {
	_, full := testText(t)
	text := full[:len(full)/32*32-12] // the last block is 20 bytes
	nb := (len(text) + 31) / 32
	const attempts = 8
	faults := faultinj.Options{Seed: 7, BitFlipRate: 0.2, TransientRate: 0.1}
	for _, tc := range []struct {
		name string
		// off and n are the byte window; blocks reads it as the block
		// range it covers, which must then be block-aligned.
		off, n int
		blocks bool
		// warm are blocks read first, so the run has cached holes;
		// workers 1 then merges the runs into one ticket.
		warm    []int
		workers int
		faults  bool
		pairs   int64
	}{
		{name: "range even run", off: 0, n: 8 * 32, blocks: true, pairs: 4},
		{name: "range odd run", off: 32, n: 5 * 32, blocks: true, pairs: 2},
		{name: "range ends on short last block", off: (nb - 4) * 32, n: len(text) - (nb-4)*32, blocks: true, pairs: 2},
		{name: "range odd run ends on short last block", off: (nb - 3) * 32, n: len(text) - (nb-3)*32, blocks: true, pairs: 1},
		{name: "bytes odd run", off: 2 * 32, n: 3 * 32, pairs: 1},
		{name: "bytes sub-block tail after a single", off: 2*32 + 3, n: 5 * 32, pairs: 2},
		{name: "bytes sub-block tail after a pair", off: 2 * 32, n: 4*32 + 5, pairs: 2},
		{name: "bytes ends on short last block", off: (nb-5)*32 + 7, n: len(text) - (nb-5)*32 - 7, pairs: 2},
		{name: "range merged run", off: 0, n: 10 * 32, blocks: true, warm: []int{3, 6}, workers: 1},
		{name: "range with faults armed", off: 0, n: 10 * 32, blocks: true, faults: true},
		{name: "bytes with faults armed", off: 2*32 + 3, n: 7 * 32, faults: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, pc := pairServer(t, Options{PrefetchDepth: -1, Workers: tc.workers, LoadAttempts: attempts}, text)
			for _, b := range tc.warm {
				if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			var hooked, refHooked int
			if tc.faults {
				o := faults
				o.Hook = func(faultinj.Kind) { mu.Lock(); hooked++; mu.Unlock() }
				if err := s.SetFaults("prog", &o); err != nil {
					t.Fatal(err)
				}
			}
			var got []byte
			var decoded int
			if tc.blocks {
				var st RangeStats
				var err error
				if got, st, err = rangeBytes(s, "prog", tc.off/32, (tc.off+tc.n-1)/32); err != nil {
					t.Fatal(err)
				}
				decoded = st.DecodedBlocks
			} else {
				v, err := s.ReadAtContext(context.Background(), "prog", tc.off, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				got = v.AppendTo(nil)
				v.Close()
			}
			if want := text[tc.off : tc.off+tc.n]; !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes at %d: wrong bytes", tc.n, tc.off)
			}
			if n := pc.pairs.Load(); n != tc.pairs {
				t.Fatalf("%d two-lane calls, want %d", n, tc.pairs)
			}
			if tc.blocks && !tc.faults && tc.warm == nil {
				for name, h := range map[string]interface{ Count() int64 }{
					"decode": s.met.decode, "verify": s.met.verify, "block load": s.met.blockLoad,
				} {
					if n := h.Count(); n != int64(decoded) {
						t.Errorf("%s histogram has %d samples for %d decoded blocks", name, n, decoded)
					}
				}
			}
			if !tc.faults {
				return
			}
			// Replay the single path's loads on a reference injector:
			// every block of the window in order, attempt by attempt until
			// one verifies.
			ref := faults
			ref.Hook = func(faultinj.Kind) { refHooked++ }
			j := faultinj.New(pc.SAMCImage, ref)
			for b := tc.off / 32; b <= (tc.off+tc.n-1)/32; b++ {
				want, _ := pc.SAMCImage.Block(b)
				for range attempts {
					if out, err := j.AppendBlock(nil, b); err == nil && bytes.Equal(out, want) {
						break
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if hooked == 0 || hooked != refHooked {
				t.Fatalf("injector hook counted %d faults, the single path's loads %d", hooked, refHooked)
			}
		})
	}
}

// TestBulkPairCorruptPayloadFailsThroughSinglePath flips one payload byte
// of a registered SAMC image, in the first and then the second lane of a
// pair. A bulk read over it fails that block through the single path with
// ErrCorruptBlock, counting the corruption once per attempt and failing
// the load once, exactly as a single-block load of the block does.
func TestBulkPairCorruptPayloadFailsThroughSinglePath(t *testing.T) {
	_, text := testText(t)
	for _, bad := range []int{4, 5} {
		opts := fastFaultOpts()
		opts.ReverifyInterval = -1 // no background loads of the bad block
		s, pc := pairServer(t, opts, text)
		pc.Blocks[bad][0] ^= 0xff
		_, _, err := rangeBytes(s, "prog", 2, 9)
		if !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("block %d: bulk read err = %v, want ErrCorruptBlock", bad, err)
		}
		// Pair (2,3) loads; pair (4,5) fails verification, so 4 and 5 load
		// alone and the run stops at the bad block.
		if n := pc.pairs.Load(); n != 2 {
			t.Fatalf("block %d: %d two-lane calls, want 2", bad, n)
		}
		corrupt, failures := metric(t, s, "romserver_corrupt_blocks_total"), metric(t, s, "romserver_load_failures_total")
		if corrupt != int64(opts.LoadAttempts) || failures != 1 {
			t.Fatalf("block %d: bulk read counted %d corrupt blocks and %d load failures, want %d and 1",
				bad, corrupt, failures, opts.LoadAttempts)
		}
		if h := healthOf(t, s, "prog"); h.BadBlocks != 1 {
			t.Fatalf("block %d: health %+v, want one bad block", bad, h)
		}
		if _, _, err := s.BlockContext(context.Background(), "prog", bad); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("block %d: demand read err = %v, want ErrCorruptBlock", bad, err)
		}
		if n := metric(t, s, "romserver_corrupt_blocks_total") - corrupt; n != corrupt {
			t.Fatalf("block %d: a single-block load counted %d corrupt blocks, the bulk read %d", bad, n, corrupt)
		}
	}
}
