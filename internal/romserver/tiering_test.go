package romserver

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"codecomp"
)

// testTierSpec is a three-tier layout (raw / huffman / rans) with every
// block parked in the densest tier, the state a fresh upload starts
// serving from before any training.
var testTierSpec = codecomp.TierSpec{
	BlockSize:   128,
	Tiers:       []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS},
	DefaultTier: 2,
}

// marshalTiered compresses text under testTierSpec.
func marshalTiered(t testing.TB, text []byte) []byte {
	t.Helper()
	img, err := codecomp.CompressTiered(text, testTierSpec)
	if err != nil {
		t.Fatal(err)
	}
	return img.Marshal()
}

// skewedTrace builds an access trace where the first hotBlocks blocks
// carry ~90% of all accesses — the classic hot-set skew the tier policy
// is built for.
func skewedTrace(blocks, hotBlocks, accesses int) []int {
	trace := make([]int, 0, accesses)
	for i := 0; i < accesses; i++ {
		if i%10 != 0 {
			// i%hotBlocks rather than a fixed stride: a stride sharing a
			// factor with hotBlocks would only touch part of the hot set.
			trace = append(trace, i%hotBlocks)
		} else {
			trace = append(trace, hotBlocks+i%(blocks-hotBlocks))
		}
	}
	return trace
}

func TestTieredImageServing(t *testing.T) {
	_, text := testText(t)
	s := New(Options{})
	defer s.Close()
	info, err := s.AddImage("tiered", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != codecomp.FormatTiered {
		t.Fatalf("format %q", info.Format)
	}
	got, err := fullText(s, "tiered")
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("full text mismatch (err %v)", err)
	}
	ti, err := s.Tiering("tiered")
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.Tiers) != 3 || ti.Tiers[2].Blocks != info.Blocks {
		t.Fatalf("tier stats %+v", ti.Tiers)
	}
	// Tiering APIs reject single-codec images.
	if _, err := s.AddImage("plain", marshalSAMC(t, text)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tiering("plain"); !errors.Is(err, ErrNotTiered) {
		t.Fatalf("Tiering(plain) = %v", err)
	}
	if err := s.SetTierPolicy("plain", codecomp.TierPolicy{}); !errors.Is(err, ErrNotTiered) {
		t.Fatalf("SetTierPolicy(plain) = %v", err)
	}
	if _, err := s.Recompress("plain"); !errors.Is(err, ErrNotTiered) {
		t.Fatalf("Recompress(plain) = %v", err)
	}
	if err := s.SetTierPolicy("tiered", codecomp.TierPolicy{HotFraction: 2}); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("bad policy = %v", err)
	}
}

func TestRecompressConvergence(t *testing.T) {
	_, text := testText(t)
	var persisted [][]byte
	var persistMu sync.Mutex
	s := New(Options{Tiering: &TieringOptions{
		Interval: -1, // synchronous passes only
		Persist: func(name string, image []byte) error {
			persistMu.Lock()
			persisted = append(persisted, append([]byte(nil), image...))
			persistMu.Unlock()
			return nil
		},
	}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}

	// An untrained image recompresses to a no-op, not an error.
	st, err := s.Recompress("prog")
	if err != nil || st.Trained || st.Migrated != 0 {
		t.Fatalf("untrained pass = %+v, %v", st, err)
	}

	// Warm some blocks into the cache before migrating, so the pass must
	// actually orphan their cached copies.
	for b := 0; b < 8; b++ {
		if _, _, err := s.BlockContext(context.Background(), "prog", b); err != nil {
			t.Fatal(err)
		}
	}

	hot := info.Blocks / 10
	if hot < 1 {
		hot = 1
	}
	if _, err := s.TrainFrom("prog", skewedTrace(info.Blocks, hot, 20000)); err != nil {
		t.Fatal(err)
	}
	st, err = s.Recompress("prog")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Trained || st.Migrated == 0 || st.VerifyFailures != 0 {
		t.Fatalf("trained pass = %+v", st)
	}
	ti, err := s.Tiering("prog")
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for b := 0; b < hot; b++ {
		if ti.Assignments[b] < 2 {
			fast++
		}
	}
	if fast*10 < hot*9 {
		t.Fatalf("only %d/%d hot blocks in fast tiers", fast, hot)
	}
	// Every byte must still be exact after migration — including the
	// blocks whose pre-migration copies were cached.
	got, err := fullText(s, "prog")
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("text corrupted by recompression (err %v)", err)
	}

	// The persist hook got a loadable image carrying the migrated map.
	persistMu.Lock()
	n := len(persisted)
	var last []byte
	if n > 0 {
		last = persisted[n-1]
	}
	persistMu.Unlock()
	if n == 0 {
		t.Fatal("persist hook never called")
	}
	re, err := codecomp.UnmarshalTiered(last)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Assignments(), ti.Assignments) {
		t.Fatal("persisted tier map does not match live map")
	}
	dec, err := re.Decompress()
	if err != nil || !bytes.Equal(dec, text) {
		t.Fatalf("persisted image corrupt (err %v)", err)
	}

	// A second pass under the same profile has nothing left to do.
	st, err = s.Recompress("prog")
	if err != nil || st.Migrated != 0 {
		t.Fatalf("second pass = %+v, %v", st, err)
	}
}

// TestTieredMigrationUnderLoad drives concurrent demand reads against an
// image while recompression passes flip its blocks between tiers, and
// requires every served byte to match the original text throughout.
func TestTieredMigrationUnderLoad(t *testing.T) {
	_, text := testText(t)
	s := New(Options{CacheBlocks: 64, Tiering: &TieringOptions{Interval: -1}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}
	hot := info.Blocks / 8
	if hot < 1 {
		hot = 1
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				b := (seed*31 + it*7) % info.Blocks
				got, _, err := s.BlockContext(context.Background(), "prog", b)
				if err != nil {
					t.Errorf("block %d: %v", b, err)
					return
				}
				end := (b + 1) * 128
				if end > len(text) {
					end = len(text)
				}
				if !bytes.Equal(got, text[b*128:end]) {
					t.Errorf("block %d mismatch during migration", b)
					return
				}
			}
		}(g)
	}
	// Alternate between a hot-promoting profile and an everything-cold
	// one, so every pass migrates blocks in both directions under load.
	for round := 0; round < 4; round++ {
		var trace []int
		if round%2 == 0 {
			trace = skewedTrace(info.Blocks, hot, 8000)
		} else {
			for b := 0; b < info.Blocks; b++ {
				trace = append(trace, b)
			}
		}
		if _, err := s.TrainFrom("prog", trace); err != nil {
			t.Fatal(err)
		}
		st, err := s.Recompress("prog")
		if err != nil {
			t.Fatal(err)
		}
		if st.VerifyFailures != 0 {
			t.Fatalf("round %d: %d verify failures", round, st.VerifyFailures)
		}
	}
	close(stop)
	wg.Wait()
	got, err := fullText(s, "prog")
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("text corrupted after migration storm (err %v)", err)
	}
}

// TestTieringBatchLimit verifies one pass migrates at most BatchBlocks
// blocks and reports the remaining backlog in Planned.
func TestTieringBatchLimit(t *testing.T) {
	_, text := testText(t)
	s := New(Options{Tiering: &TieringOptions{Interval: -1, BatchBlocks: 3}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}
	hot := info.Blocks / 4
	if hot < 4 {
		hot = 4
	}
	if _, err := s.TrainFrom("prog", skewedTrace(info.Blocks, hot, 20000)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Recompress("prog")
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated > 3 {
		t.Fatalf("batch limit ignored: migrated %d", st.Migrated)
	}
	if st.Planned <= st.Migrated {
		t.Fatalf("no backlog reported: %+v", st)
	}
	// Passes keep draining the backlog until the plan is satisfied.
	for i := 0; i < info.Blocks; i++ {
		st, err = s.Recompress("prog")
		if err != nil {
			t.Fatal(err)
		}
		if st.Migrated == 0 {
			break
		}
	}
	if st.Planned != 0 {
		t.Fatalf("backlog never drained: %+v", st)
	}
	got, err := fullText(s, "prog")
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("text corrupted (err %v)", err)
	}
}

// TestTierMigrationInvalidates: a migrated block's cached copy is
// dropped, so the next read decodes it once more through its new tier
// and serves the same bytes; the read after that hits.
func TestTierMigrationInvalidates(t *testing.T) {
	_, text := testText(t)
	s := New(Options{PrefetchDepth: -1, Tiering: &TieringOptions{Interval: -1}})
	defer s.Close()
	info, err := s.AddImage("prog", marshalTiered(t, text))
	if err != nil {
		t.Fatal(err)
	}
	bs := testTierSpec.BlockSize
	want := text[:bs]
	decodes := func() int64 { return metric(t, s, "romserver_decompressions_total") }
	read := func(wantHit bool) {
		t.Helper()
		data, hit, err := s.BlockContext(context.Background(), "prog", 0)
		if err != nil || hit != wantHit || !bytes.Equal(data, want) {
			t.Fatalf("read block 0: hit=%v (want %v), exact=%v, err=%v", hit, wantHit, bytes.Equal(data, want), err)
		}
	}
	read(false)
	read(true)
	img, err := s.lookup("prog")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainFrom("prog", skewedTrace(info.Blocks, max(1, info.Blocks/10), 20000)); err != nil {
		t.Fatal(err)
	}
	before := decodes()
	st, err := s.Recompress("prog")
	if err != nil || st.Migrated == 0 {
		t.Fatalf("pass = %+v, %v", st, err)
	}
	if tier, err := img.tiered.TierOf(0); err != nil || tier == testTierSpec.DefaultTier {
		t.Fatalf("block 0 still in tier %d (%v)", tier, err)
	}
	if s.cache.Contains(img.key(0)) {
		t.Fatal("migrated block 0 still cached")
	}
	read(false)
	if got := decodes() - before; got != 1 {
		t.Fatalf("read after migration decoded %d blocks, want 1", got)
	}
	read(true)
}
