package blockcache

import (
	"bytes"
	"testing"
)

// TestPeekDoesNotDistortAccounting pins down Peek's contract for peer
// cache-fill: it returns cached bytes without running a loader, without
// counting a hit or miss, and without refreshing LRU recency — a
// replica serving another node's fill probe must not let remote demand
// reshape its own cache.
func TestPeekDoesNotDistortAccounting(t *testing.T) {
	c := New(2, 1)
	k0 := Key{Image: 1, Block: 0}
	k1 := Key{Image: 1, Block: 1}
	k2 := Key{Image: 1, Block: 2}
	load := func(b byte) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte{b}, nil }
	}

	if _, ok := c.Peek(k0); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	if _, _, err := c.Get(k0, load(0)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	val, ok := c.Peek(k0)
	if !ok || !bytes.Equal(val, []byte{0}) {
		t.Fatalf("Peek(k0) = %v, %v; want cached bytes", val, ok)
	}
	if _, ok := c.Peek(k2); ok {
		t.Fatal("Peek invented a value for an uncached key")
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Peek moved hit/miss counters: %+v -> %+v", before, after)
	}

	// LRU neutrality: k0 then k1 are inserted; peeking k0 must NOT make
	// it recently-used, so inserting k2 into the 2-entry cache evicts k0
	// (the true LRU victim), not k1.
	if _, _, err := c.Get(k1, load(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(k0); !ok {
		t.Fatal("k0 missing before eviction test")
	}
	if _, _, err := c.Get(k2, load(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(k0); ok {
		t.Fatal("Peek refreshed LRU recency: k0 survived an eviction it should have lost")
	}
	if _, ok := c.Peek(k1); !ok {
		t.Fatal("k1 evicted instead of the older k0")
	}
}

// TestGetCachedBehavesLikeAHit pins down GetCached's contract for the
// brownout serving path: a resident block counts a demand hit (and a
// prefetch hit when speculative) and refreshes LRU recency exactly like
// Get; an absent block reports ok=false without counting a miss, since
// no load happens.
func TestGetCachedBehavesLikeAHit(t *testing.T) {
	c := New(2, 1)
	k0 := Key{Image: 1, Block: 0}
	k1 := Key{Image: 1, Block: 1}
	k2 := Key{Image: 1, Block: 2}
	load := func(b byte) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte{b}, nil }
	}

	if _, ok := c.GetCached(k0); ok {
		t.Fatal("GetCached hit on an empty cache")
	}
	if after := c.Stats(); after.Misses != 0 {
		t.Fatalf("GetCached miss counted as a load miss: %+v", after)
	}

	if _, _, err := c.GetPrefetch(k0, load(0)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	val, ok := c.GetCached(k0)
	if !ok || !bytes.Equal(val, []byte{0}) {
		t.Fatalf("GetCached(k0) = %v, %v; want cached bytes", val, ok)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("hits %d -> %d, want a demand hit", before.Hits, after.Hits)
	}
	if after.PrefetchHits != before.PrefetchHits+1 {
		t.Fatalf("prefetch hits %d -> %d, want the speculative entry claimed", before.PrefetchHits, after.PrefetchHits)
	}

	// LRU refresh: after touching k0 via GetCached, inserting k2 into
	// the 2-entry cache must evict k1, not k0.
	if _, _, err := c.Get(k1, load(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetCached(k0); !ok {
		t.Fatal("k0 missing before eviction test")
	}
	if _, _, err := c.Get(k2, load(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(k0); !ok {
		t.Fatal("GetCached did not refresh recency: k0 was evicted")
	}
	if _, ok := c.Peek(k1); ok {
		t.Fatal("k1 survived eviction it should have lost")
	}
}
