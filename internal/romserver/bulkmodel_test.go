package romserver

// The bulk admission rule against its offline model and on a cyclic
// scan: a one-shard server and memsys.EvaluatePolicy, fed the same
// seeded sequence of demand and range reads, make the same choices.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"codecomp/internal/memsys"
)

// TestAdmitSequentialScanEvictsNothing: four passes in page order over
// an image 2.5 times the cache. The first pass fills the cache and
// turns away the other 96 blocks; on every later pass each of them
// comes back after 95 other skips, beyond the 64-block horizon, so the
// first fill serves every pass and nothing is evicted.
func TestAdmitSequentialScanEvictsNothing(t *testing.T) {
	const (
		cacheBlocks = 64
		pageBlocks  = 8
		blocks      = 160
	)
	s := New(Options{CacheBlocks: cacheBlocks, CacheShards: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	s.addCodec("img", &stubCodec{blocks: blocks})
	for pass := 1; pass <= 4; pass++ {
		cached := 0
		for p := 0; p < blocks/pageBlocks; p++ {
			cached += readView(t, s, "img", 2*p*pageBlocks, 2*pageBlocks).CachedBlocks
		}
		st := s.cache.Stats()
		if st.Evictions != 0 || s.cache.Len() != cacheBlocks {
			t.Fatalf("pass %d: %d evictions, %d entries; want none and a full cache", pass, st.Evictions, s.cache.Len())
		}
		if want := min(pass-1, 1) * cacheBlocks; cached != want {
			t.Fatalf("pass %d served %d of %d blocks from cache, want %d", pass, cached, blocks, want)
		}
	}
}

// TestAdmitMatchesOfflineModel runs one seeded single-goroutine sequence
// of demand reads (BlockContext) and range reads (RangeView) against a
// one-shard server with prefetch off, and through EvaluatePolicy. The
// two count the same hits, decodes and evictions after every step. At
// four seeded steps the image is removed and registered again, which
// empties the cache of its blocks: the model restarts from an empty
// cache there, the server's counters are compared as deltas since the
// replace, and no cached block may be left under a dead registration.
func TestAdmitMatchesOfflineModel(t *testing.T) {
	const (
		blocks      = 300
		cacheBlocks = 48
		hot         = 60 // half the reads fall in the first hot blocks
		steps       = 400
		replaces    = 4
	)
	c := &stubCodec{blocks: blocks}
	s := New(Options{CacheBlocks: cacheBlocks, CacheShards: 1, PrefetchDepth: -1, TraceBuffer: -1, ReverifyInterval: -1})
	defer s.Close()
	img := s.addCodec("img", c)

	rng := rand.New(rand.NewSource(11))
	pick := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(hot)
		}
		return rng.Intn(blocks)
	}
	replaceAt := map[int]bool{}
	for _, step := range rand.New(rand.NewSource(12)).Perm(steps - 100)[:replaces] {
		replaceAt[step+50] = true
	}
	var (
		reads       []memsys.Access
		rangeCached int64
		base        [4]int64
		dead        int
	)
	counters := func() [4]int64 {
		cs := s.cache.Stats()
		return [4]int64{cs.Hits, rangeCached, c.calls.Load(), cs.Evictions}
	}
	for step := 1; step <= steps; step++ {
		if replaceAt[step] {
			if err := s.RemoveImage("img"); err != nil {
				t.Fatal(err)
			}
			img = s.addCodec("img", c)
			reads, base = reads[:0], counters()
			dead++
		}
		first := pick()
		if rng.Intn(2) == 0 {
			data, _, err := s.BlockContext(context.Background(), "img", first)
			if err != nil || !bytes.Equal(data, stubBlock(first)) {
				t.Fatalf("step %d: block %d = %v, %v", step, first, data, err)
			}
			reads = append(reads, memsys.Access{First: first, Last: first})
		} else {
			last := min(first+rng.Intn(24), blocks-1)
			v, err := s.RangeView(context.Background(), "img", first, last)
			if err != nil {
				t.Fatalf("step %d: range [%d,%d]: %v", step, first, last, err)
			}
			var want []byte
			for b := first; b <= last; b++ {
				want = append(want, stubBlock(b)...)
			}
			if !bytes.Equal(v.AppendTo(nil), want) {
				t.Fatalf("step %d: range [%d,%d]: wrong bytes", step, first, last)
			}
			rangeCached += int64(v.Stats().CachedBlocks)
			v.Close()
			reads = append(reads, memsys.Access{First: first, Last: last, Bulk: true})
		}

		model, err := memsys.EvaluatePolicy(reads, blocks, nil, memsys.PolicyConfig{CacheBlocks: cacheBlocks})
		if err != nil {
			t.Fatal(err)
		}
		server := counters()
		for i := range server {
			server[i] -= base[i]
		}
		offline := [4]int64{int64(model.DemandHits), int64(model.BulkCached), int64(model.Decompressions), int64(model.Evictions)}
		if server != offline {
			t.Fatalf("step %d (%d replaces): server [demand hits, range cached, decodes, evictions] since the last replace = %v, model %v", step, dead, server, offline)
		}
		live := 0
		for b := range blocks {
			if _, ok := s.cache.Peek(img.key(b)); ok {
				live++
			}
		}
		if n := s.cache.Len(); n != live {
			t.Fatalf("step %d: %d cached blocks, %d under the live registration: the rest carry a dead id", step, n, live)
		}
	}
	if cs := s.cache.Stats(); dead != replaces || cs.Evictions == 0 || rangeCached == 0 || cs.Hits == 0 {
		t.Fatalf("the sequence exercised too little: %d replaces, %+v, %d range blocks cached", dead, cs, rangeCached)
	}
}
