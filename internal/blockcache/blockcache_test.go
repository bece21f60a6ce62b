package blockcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func loadValue(b []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return b, nil }
}

func TestGetHitMiss(t *testing.T) {
	c := New(8, 2)
	k := Key{Image: 1, Block: 3}

	v, hit, err := c.Get(k, loadValue([]byte("abc")))
	if err != nil || hit || string(v) != "abc" {
		t.Fatalf("first Get = %q, hit=%v, err=%v; want miss abc", v, hit, err)
	}
	v, hit, err = c.Get(k, func() ([]byte, error) {
		t.Fatal("loader ran on a hit")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "abc" {
		t.Fatalf("second Get = %q, hit=%v, err=%v; want hit abc", v, hit, err)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Deduped != 0 || c.Len() != 1 || st.Bytes != 3 {
		t.Fatalf("stats = %+v, %d entries", st, c.Len())
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4, 1) // single shard: strict global LRU
	for i := 0; i < 4; i++ {
		c.Get(Key{Image: 1, Block: uint32(i)}, loadValue([]byte{byte(i)}))
	}
	c.Get(Key{Image: 1, Block: 0}, loadValue(nil)) // touch 0: now 1 is least recent
	c.Get(Key{Image: 1, Block: 4}, loadValue([]byte{4}))

	if c.Contains(Key{Image: 1, Block: 1}) {
		t.Fatal("block 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if !c.Contains(Key{Image: 1, Block: uint32(i)}) {
			t.Fatalf("block %d should still be cached", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || c.Len() != 4 {
		t.Fatalf("stats = %+v, %d entries; want 1 eviction, 4 entries", st, c.Len())
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(16, 4)
	const waiters = 16
	gate := make(chan struct{})
	var loads atomic.Int64
	var wg sync.WaitGroup
	k := Key{Image: 1, Block: 7}

	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			v, _, err := c.Get(k, func() ([]byte, error) {
				loads.Add(1)
				<-gate
				return []byte("block7"), nil
			})
			if err != nil || string(v) != "block7" {
				t.Errorf("Get = %q, %v", v, err)
			}
		}()
	}
	// Wait until the one loader is in flight and every other goroutine has
	// joined it, then release the loader.
	for {
		st := c.Stats()
		if st.Misses == 1 && st.Deduped == waiters-1 {
			break
		}
	}
	close(gate)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Deduped != waiters-1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(8, 1)
	k := Key{Image: 1, Block: 0}
	boom := errors.New("boom")

	if _, _, err := c.Get(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains(k) {
		t.Fatal("error result was cached")
	}
	v, hit, err := c.Get(k, loadValue([]byte("ok")))
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry = %q, hit=%v, err=%v", v, hit, err)
	}
}

func TestInvalidateImage(t *testing.T) {
	c := New(64, 4)
	for i := 0; i < 10; i++ {
		c.Get(Key{Image: 1, Block: uint32(i)}, loadValue([]byte{1, 2}))
		c.Get(Key{Image: 2, Block: uint32(i)}, loadValue([]byte{3}))
	}
	if n := c.InvalidateImage(1); n != 10 {
		t.Fatalf("invalidated %d, want 10", n)
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 10", c.Len())
	}
	for i := 0; i < 10; i++ {
		if c.Contains(Key{Image: 1, Block: uint32(i)}) {
			t.Fatalf("a/%d survived invalidation", i)
		}
		if !c.Contains(Key{Image: 2, Block: uint32(i)}) {
			t.Fatalf("b/%d was dropped", i)
		}
	}
	if st := c.Stats(); st.Bytes != 10 {
		t.Fatalf("bytes = %d, want 10", st.Bytes)
	}
}

func TestCapacityDefaultsAndRounding(t *testing.T) {
	if got := New(0, 0).Capacity(); got != 4096 {
		t.Fatalf("default capacity = %d", got)
	}
	if got := New(10, 4).Capacity(); got != 12 { // ceil(10/4)=3 per shard
		t.Fatalf("rounded capacity = %d", got)
	}
	if got := New(2, 16).Capacity(); got != 2 { // shards clamped to capacity
		t.Fatalf("clamped capacity = %d", got)
	}
}

// TestConcurrentChurn hammers overlapping keys from many goroutines with a
// small capacity so hits, misses, dedup and eviction all race; run under
// -race this is the cache's thread-safety proof.
func TestConcurrentChurn(t *testing.T) {
	c := New(32, 4)
	const (
		goroutines = 8
		iters      = 2000
		keyspace   = 100
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := Key{Image: 1, Block: uint32((g*31 + i) % keyspace)}
				want := fmt.Sprintf("v%d", k.Block)
				v, _, err := c.Get(k, loadValue([]byte(want)))
				if err != nil || string(v) != want {
					t.Errorf("Get(%d) = %q, %v", k.Block, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses+st.Deduped != goroutines*iters {
		t.Fatalf("counter sum %d != %d Gets (stats %+v)", st.Hits+st.Misses+st.Deduped, goroutines*iters, st)
	}
	if n := c.Len(); n > 32 {
		t.Fatalf("entries %d exceed capacity", n)
	}
}

// TestEvictionOrderUnderConcurrency first races many goroutines over one
// shard (the -race thread-safety proof), then verifies the LRU order the
// churn left behind is still coherent: after a deterministic touch pass,
// evictions happen in exactly least-recently-touched order.
func TestEvictionOrderUnderConcurrency(t *testing.T) {
	const capacity = 8
	c := New(capacity, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Image: 1, Block: uint32((g*31 + i) % 40)}
				if _, _, err := c.Get(k, loadValue([]byte{byte(k.Block)})); err != nil {
					t.Errorf("Get(%d): %v", k.Block, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Deterministically touch blocks 0..7; whatever the churn left, these
	// are now the cache contents in exactly this recency order.
	for b := 0; b < capacity; b++ {
		c.Get(Key{Image: 1, Block: uint32(b)}, loadValue([]byte{byte(b)}))
	}
	for b := 0; b < capacity; b++ {
		if !c.Contains(Key{Image: 1, Block: uint32(b)}) {
			t.Fatalf("block %d missing after touch pass", b)
		}
	}
	// Insert fresh keys one at a time: evictions must follow touch order.
	for i := 0; i < capacity; i++ {
		c.Get(Key{Image: 1, Block: uint32(1000 + i)}, loadValue([]byte{1}))
		if c.Contains(Key{Image: 1, Block: uint32(i)}) {
			t.Fatalf("insert %d: block %d should be the LRU victim", i, i)
		}
		for b := i + 1; b < capacity; b++ {
			if !c.Contains(Key{Image: 1, Block: uint32(b)}) {
				t.Fatalf("insert %d: block %d evicted out of order", i, b)
			}
		}
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	c := New(8, 1)
	// Speculative load, then two demand hits: only the first is a
	// prefetch hit.
	c.GetPrefetch(Key{Image: 1, Block: 0}, loadValue([]byte{0}))
	for i := 0; i < 2; i++ {
		if _, hit, _ := c.Get(Key{Image: 1, Block: 0}, loadValue(nil)); !hit {
			t.Fatal("warmed block missed")
		}
	}
	// A prefetch hitting a prefetched entry does not consume the tag...
	c.GetPrefetch(Key{Image: 1, Block: 1}, loadValue([]byte{1}))
	c.GetPrefetch(Key{Image: 1, Block: 1}, loadValue(nil))
	// ...so the later demand hit still counts.
	c.Get(Key{Image: 1, Block: 1}, loadValue(nil))

	st := c.Stats()
	if st.PrefetchHits != 2 {
		t.Fatalf("prefetch hits = %d, want 2", st.PrefetchHits)
	}

	// Evicting a never-used prefetched block counts as waste.
	c.GetPrefetch(Key{Image: 1, Block: 2}, loadValue([]byte{2}))
	for b := 10; b < 30; b++ {
		c.Get(Key{Image: 1, Block: uint32(b)}, loadValue([]byte{1}))
	}
	if st := c.Stats(); st.PrefetchEvicted == 0 {
		t.Fatalf("prefetch evictions not counted: %+v", st)
	}
}

// TestGenerationSeparatesRegistrations: the same block under two
// registration ids (a name registered, then replaced) is two distinct
// entries, a stale insert from the old registration can never hit a
// read of the new one, and image-wide invalidation touches only the id
// it is given.
func TestGenerationSeparatesRegistrations(t *testing.T) {
	c := New(64, 2)
	oldKey := Key{Image: 1, Block: 0}
	newKey := Key{Image: 2, Block: 0}

	// A late insert from the old registration (e.g. a load that was in
	// flight across a replace) lands under the old id only.
	c.Get(oldKey, loadValue([]byte("stale")))
	if v, hit, _ := c.Get(newKey, loadValue([]byte("fresh"))); hit || string(v) != "fresh" {
		t.Fatalf("new-registration read got %q (hit=%v)", v, hit)
	}
	if v, hit, _ := c.Get(newKey, loadValue(nil)); !hit || string(v) != "fresh" {
		t.Fatalf("new-registration re-read got %q (hit=%v)", v, hit)
	}

	// InvalidateImage drops the old registration only.
	if n := c.InvalidateImage(1); n != 1 {
		t.Fatalf("InvalidateImage dropped %d entries, want 1", n)
	}
	if c.Contains(oldKey) || !c.Contains(newKey) {
		t.Fatal("invalidate crossed registrations")
	}
}

// TestInvalidateOneBlock: Invalidate drops exactly one entry, fixes the
// byte count, and reports absence.
func TestInvalidateOneBlock(t *testing.T) {
	c := New(16, 4)
	for b := 0; b < 4; b++ {
		c.Put(Key{Image: 1, Block: uint32(b)}, []byte{1, 2, 3})
	}
	if !c.Invalidate(Key{Image: 1, Block: 2}) {
		t.Fatal("Invalidate missed a resident block")
	}
	if !c.Invalidate(Key{Image: 1, Block: 0}) {
		t.Fatal("Invalidate missed a resident block")
	}
	if c.Invalidate(Key{Image: 1, Block: 0}) {
		t.Fatal("second Invalidate reported a dropped block")
	}
	st := c.Stats()
	if c.Len() != 2 || st.Bytes != 6 {
		t.Fatalf("stats after invalidate = %+v, %d entries", st, c.Len())
	}
	if c.Contains(Key{Image: 1, Block: 2}) || !c.Contains(Key{Image: 1, Block: 1}) {
		t.Fatal("Invalidate dropped the wrong block")
	}
}

// TestShardStriping pins the property cold sequential reads rely on:
// consecutive blocks of one image land in consecutive shards, so a run
// of n blocks puts at most ceil(n/shards) in any shard.
func TestShardStriping(t *testing.T) {
	c := New(256, 16)
	index := func(k Key) int {
		s := c.shardFor(k)
		for i := range c.shards {
			if &c.shards[i] == s {
				return i
			}
		}
		t.Fatalf("key %+v maps outside the shard table", k)
		return -1
	}
	for img := uint32(1); img < 5; img++ {
		first := index(Key{Image: img, Block: 0})
		for b := uint32(0); b < 64; b++ {
			if got, want := index(Key{Image: img, Block: b}), (first+int(b))%16; got != want {
				t.Fatalf("image %d block %d: shard %d, want %d", img, b, got, want)
			}
		}
	}
}

// TestPutIfRoomNeverEvicts: PutIfRoom admits while the shard has room,
// refuses a new key once it is full without evicting anything or
// counting a demand miss, still replaces a key already present, and
// admits again into a slot an invalidation freed.
func TestPutIfRoomNeverEvicts(t *testing.T) {
	c := New(4, 1)
	for b := 0; b < 4; b++ {
		if !c.PutIfRoom(Key{Image: 1, Block: uint32(b)}, []byte{byte(b)}) {
			t.Fatalf("PutIfRoom(%d) refused with room", b)
		}
	}
	if c.PutIfRoom(Key{Image: 1, Block: 9}, []byte{9}) {
		t.Fatal("PutIfRoom admitted into a full shard")
	}
	if st := c.Stats(); st.Evictions != 0 || c.Len() != 4 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("after a refused PutIfRoom: %+v, %d entries", st, c.Len())
	}
	if !c.PutIfRoom(Key{Image: 1, Block: 2}, []byte{42}) {
		t.Fatal("PutIfRoom refused to replace a present key")
	}
	if v, ok := c.Peek(Key{Image: 1, Block: 2}); !ok || v[0] != 42 {
		t.Fatalf("replaced block = %v, %v", v, ok)
	}

	c.Invalidate(Key{Image: 1, Block: 1})
	if !c.PutIfRoom(Key{Image: 1, Block: 10}, []byte{10}) {
		t.Fatal("PutIfRoom refused the slot an invalidation freed")
	}
	if c.PutIfRoom(Key{Image: 1, Block: 11}, []byte{11}) {
		t.Fatal("PutIfRoom admitted into a full shard after refilling it")
	}
	if st := c.Stats(); st.Evictions != 0 || c.Len() != 4 {
		t.Fatalf("final: %+v, %d entries", st, c.Len())
	}
}
