// Package blockcache is a sharded LRU cache of decompressed cache blocks,
// the software analogue of the paper's decompression buffer scaled out for
// serving: where the Wolfe/Chanin refill engine decompresses a block into
// one cache line on every miss, a serving process holding many images wants
// recently decompressed blocks kept around and concurrent misses on the
// same block collapsed into a single decompression.
//
// The cache is keyed by (image registration, block). Keys map to one of N
// independent shards, each holding its own LRU list and mutex, so
// concurrent readers of different blocks rarely contend. Each shard also
// runs singleflight deduplication: the first miss on a key decompresses
// while later arrivals for the same key wait for that one result instead
// of decompressing again (those are the "deduped" calls in Stats).
//
// Prefetch accounting serves the prefetch policies in internal/policy:
// loads made through GetPrefetch tag their entry, and the first demand
// Get that hits a tagged entry counts as a PrefetchHit — the "this
// speculative decompression was actually useful" signal. Tagged entries
// evicted unused count as PrefetchEvicted (wasted work).
//
// Loader errors are returned to every waiter of that flight but are never
// cached: the next Get retries.
//
// Admission is the reuse rule for blocks that bulk reads decode into a
// full cache, kept apart from the cache so that an offline model runs
// the same rule (see admission.go).
package blockcache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one decompressed block: which image registration, which
// block index. Image is the registration id the romserver assigns each
// time a name is (re)registered, so a load still in flight when its image
// is removed or replaced inserts under the old id and can never be served
// as a block of the new registration — the stale insert is dead weight
// that ages out of the LRU instead of a silent wrong read. The key is
// eight pointer-free bytes, so map operations take the runtime's 64-bit
// fast path and no string is hashed or compared.
type Key struct {
	Image uint32
	Block uint32
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from the cache.
	Hits int64 `json:"hits"`
	// Misses counts Gets that ran the loader.
	Misses int64 `json:"misses"`
	// Deduped counts Gets that joined another caller's in-flight load
	// instead of running the loader themselves (singleflight suppression).
	Deduped int64 `json:"deduped"`
	// Evictions counts LRU entries dropped to make room.
	Evictions int64 `json:"evictions"`
	// PrefetchHits counts demand hits that were the first use of a block
	// loaded via GetPrefetch — prefetches that paid off.
	PrefetchHits int64 `json:"prefetch_hits"`
	// PrefetchEvicted counts prefetched blocks evicted before any demand
	// hit — prefetches that were wasted decompressions.
	PrefetchEvicted int64 `json:"prefetch_evicted"`
	// Bytes is the decompressed payload currently cached.
	Bytes int64 `json:"bytes"`
	// LeasesAcquired counts leases handed out by AcquirePeek.
	LeasesAcquired int64 `json:"leases_acquired"`
	// LeasesActive is the number of leases currently outstanding. A
	// value that never returns to zero is a leaked (never-released)
	// lease.
	LeasesActive int64 `json:"leases_active"`
	// RetiredLeaseBufs is the number of buffers evicted, replaced or
	// invalidated out of the cache but still pinned live by unreleased
	// leases — memory the cache no longer counts in Bytes.
	RetiredLeaseBufs int64 `json:"retired_lease_bufs"`
	// RetiredLeaseBytes is the payload those retired buffers hold.
	RetiredLeaseBytes int64 `json:"retired_lease_bytes"`
}

// HitRatio is hits over all Gets (hits + misses + deduped); 0 when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Deduped
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded LRU block cache with singleflight loading. The zero
// value is not usable; construct with New.
type Cache struct {
	shards      []shard
	perShardCap int

	hits            atomic.Int64
	misses          atomic.Int64
	deduped         atomic.Int64
	evictions       atomic.Int64
	prefetchHits    atomic.Int64
	prefetchEvicted atomic.Int64
	bytes           atomic.Int64

	leasesAcquired atomic.Int64
	leasesActive   atomic.Int64
	retiredBufs    atomic.Int64
	retiredBytes   atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// root is the sentinel of a circular intrusive LRU list:
	// root.next = most recently used, root.prev = eviction candidate.
	// Linking through the entries themselves (instead of container/list)
	// means moving or unlinking an entry touches no allocator, and evicted
	// nodes go on a freelist for the next insert.
	root   entry
	free   *entry // freelist of recycled entry nodes, chained via next
	flight map[Key]*call
}

type entry struct {
	key Key
	// buf is the refcounted backing store; the cache holds one reference
	// until the entry is evicted, replaced or invalidated, and every
	// outstanding Lease holds another (see lease.go).
	buf *leaseBuf
	// prev/next are the intrusive LRU links; only next is set while the
	// entry is on the freelist.
	prev, next *entry
	// prefetched marks a speculative load that no demand Get has hit yet.
	prefetched bool
}

// pushFront links e as most recently used. Caller holds the shard lock.
func (s *shard) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

// unlink removes e from the LRU list. Caller holds the shard lock.
func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency. Caller holds the shard lock.
func (s *shard) moveToFront(e *entry) {
	if s.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

// newEntry pops a node off the freelist or allocates one. Caller holds the
// shard lock.
func (s *shard) newEntry() *entry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &entry{}
}

// recycle clears a dead node and pushes it on the freelist. Caller holds the
// shard lock.
func (s *shard) recycle(e *entry) {
	*e = entry{next: s.free}
	s.free = e
}

// call is one in-flight load; waiters block on wg. Calls are pooled: refs
// counts the owner plus every waiter, and the last one out returns the call
// for reuse, so a cache miss does not allocate a channel per flight.
type call struct {
	wg   sync.WaitGroup
	val  []byte
	err  error
	refs atomic.Int32
}

var callPool = sync.Pool{New: func() any { return &call{} }}

// release drops one reference and recycles the call when everyone (owner and
// all deduped waiters) is done with it.
func (fl *call) release() {
	if fl.refs.Add(-1) == 0 {
		fl.val, fl.err = nil, nil
		callPool.Put(fl)
	}
}

// New returns a cache holding at most capacity blocks spread over the given
// number of shards. capacity <= 0 defaults to 4096 blocks; shards <= 0
// defaults to 16. Each shard holds ceil(capacity/shards) entries, so the
// effective capacity is rounded up to a multiple of the shard count.
func New(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = 16
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache{
		shards:      make([]shard, shards),
		perShardCap: (capacity + shards - 1) / shards,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[Key]*entry)
		s.root.next, s.root.prev = &s.root, &s.root
		s.flight = make(map[Key]*call)
	}
	return c
}

// shardFor maps a key to its shard: a per-image offset plus the block
// index. Consecutive blocks of one image therefore stripe round-robin
// across the shards, and a contiguous run of n blocks puts at most
// ceil(n/shards) of them in any one shard. Cold sequential reads rely on
// that: a page that covers every shard evenly misses in all of them once
// the cache cycles through more pages than it holds, where a random hash
// would leave some shards under capacity and turn part of the page warm.
func (c *Cache) shardFor(k Key) *shard {
	h := k.Image*0x9E3779B9 + k.Block
	return &c.shards[h%uint32(len(c.shards))]
}

// Get returns the block for key, loading it with load on a miss. The second
// result reports whether the value came straight from the cache. Concurrent
// Gets for the same missing key run load exactly once; every caller gets
// that flight's value (or error). Errors are not cached.
func (c *Cache) Get(key Key, load func() ([]byte, error)) ([]byte, bool, error) {
	return c.get(key, load, false)
}

// GetPrefetch is Get for speculative loads: a load it performs is tagged so
// that the first demand Get hitting it counts toward Stats.PrefetchHits,
// and an unused eviction toward Stats.PrefetchEvicted.
func (c *Cache) GetPrefetch(key Key, load func() ([]byte, error)) ([]byte, bool, error) {
	return c.get(key, load, true)
}

// GetCached is the demand hit path of Get without the loader: it
// returns the block only if it is already resident, refreshing recency
// and counting a hit (and a prefetch hit, if the entry was speculative)
// exactly like Get would. An absent block returns ok=false without
// touching the miss counters — no load happens, and misses are promised
// to correspond to load attempts. romserver answers every demand hit
// with it on the calling goroutine, before admission and the worker
// pool; only a miss goes on to a loader's Get.
func (c *Cache) GetCached(key Key) (val []byte, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, found := s.entries[key]
	if !found {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	if e.prefetched {
		e.prefetched = false
		c.prefetchHits.Add(1)
	}
	val = e.buf.data
	s.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

func (c *Cache) get(key Key, load func() ([]byte, error), prefetch bool) ([]byte, bool, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.moveToFront(e)
		if e.prefetched && !prefetch {
			e.prefetched = false
			c.prefetchHits.Add(1)
		}
		val := e.buf.data
		s.mu.Unlock()
		c.hits.Add(1)
		return val, true, nil
	}
	if fl, ok := s.flight[key]; ok {
		fl.refs.Add(1)
		s.mu.Unlock()
		c.deduped.Add(1)
		fl.wg.Wait()
		val, err := fl.val, fl.err
		fl.release()
		return val, false, err
	}
	fl := callPool.Get().(*call)
	fl.refs.Store(1)
	fl.wg.Add(1)
	s.flight[key] = fl
	s.mu.Unlock()
	c.misses.Add(1)

	val, err := load()
	fl.val, fl.err = val, err

	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		s.insert(c, key, val, prefetch)
	}
	s.mu.Unlock()
	fl.wg.Done()
	fl.release()
	return val, false, err
}

// insert adds a loaded value, evicting from the LRU tail while over
// capacity. Caller holds s.mu.
func (s *shard) insert(c *Cache, key Key, val []byte, prefetched bool) {
	if e, ok := s.entries[key]; ok {
		// A concurrent Invalidate+reload can race another flight's insert;
		// keep the newest value. The replaced buffer is retired, not
		// freed: leases acquired on the old bytes stay valid until
		// released.
		c.bytes.Add(int64(len(val)) - int64(len(e.buf.data)))
		e.buf.retire(c)
		e.buf = newLeaseBuf(val)
		s.moveToFront(e)
		return
	}
	e := s.newEntry()
	e.key, e.buf, e.prefetched = key, newLeaseBuf(val), prefetched
	s.pushFront(e)
	s.entries[key] = e
	c.bytes.Add(int64(len(val)))
	s.evict(c)
}

// evict drops LRU-tail entries while the shard is over capacity. Caller
// holds s.mu.
func (s *shard) evict(c *Cache) {
	for len(s.entries) > c.perShardCap {
		e := s.root.prev
		s.unlink(e)
		delete(s.entries, e.key)
		c.bytes.Add(-int64(len(e.buf.data)))
		c.evictions.Add(1)
		if e.prefetched {
			c.prefetchEvicted.Add(1)
		}
		e.buf.retire(c)
		s.recycle(e)
	}
}

// Contains reports whether key is cached right now, without touching LRU
// order or counters. The prefetcher uses it to skip already-warm blocks.
func (c *Cache) Contains(key Key) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	return ok
}

// Peek returns the cached value for key without running a loader and
// without touching LRU order, the prefetched tag or the hit/miss
// counters. romserver's merged bulk runs use it to re-check blocks that
// were cached after dispatch: a bulk read must not distort the demand
// accounting.
func (c *Cache) Peek(key Key) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	var val []byte
	if ok {
		val = e.buf.data
	}
	s.mu.Unlock()
	return val, ok
}

// Put inserts a value for key without running a loader and without
// touching the demand hit/miss or prefetch counters — the write-side
// analogue of Peek. Batched range decodes use it: every block a range
// dispatch decodes is inserted so later demand reads hit, but the insert
// itself is not a demand miss and must not skew hit-ratio or
// prefetch-accuracy accounting. Normal LRU insertion and eviction apply;
// inserting over an existing entry keeps the newest value.
//
// Put always admits, so a bulk read that calls it for every block it
// decodes cycles a full cache: an LRU looping over more blocks than it
// holds evicts each one before it comes round again, and the whole pass
// pays map and eviction work for a hit ratio near zero. romserver's range
// path therefore calls Put only for a block that Admission admits and
// PutIfRoom for the rest (see its View.Close).
func (c *Cache) Put(key Key, val []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	s.insert(c, key, val, false)
	s.mu.Unlock()
}

// PutIfRoom is Put without eviction: it inserts the value, or replaces
// an existing entry's, only if that evicts nothing, and reports whether
// it did. The room check and the insert share one shard lock, so a full
// shard is never pushed over capacity and one with room always admits.
func (c *Cache) PutIfRoom(key Key, val []byte) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	if ok || len(s.entries) < c.perShardCap {
		s.insert(c, key, val, false)
		ok = true
	}
	s.mu.Unlock()
	return ok
}

// Invalidate drops one cached block and reports whether it was present.
// Tier migration uses it so the next read decodes the block through its
// new tier. A load in flight is not interrupted; its insert lands
// afterwards.
func (c *Cache) Invalidate(key Key) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.drop(c, e)
	}
	return ok
}

// InvalidateImage drops every cached block of the image registration
// (after an image is replaced or removed). In-flight loads are not
// interrupted; their results land in the cache and are at worst one
// stale insert under the dead id, which ages out of the LRU.
func (c *Cache) InvalidateImage(image uint32) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.Image == image {
				s.drop(c, e)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// drop removes e from the shard. Caller holds s.mu.
func (s *shard) drop(c *Cache, e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	c.bytes.Add(-int64(len(e.buf.data)))
	e.buf.retire(c)
	s.recycle(e)
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the effective maximum number of cached blocks.
func (c *Cache) Capacity() int { return c.perShardCap * len(c.shards) }

// Stats returns a snapshot of the counters without taking a shard lock
// (Len counts the entries). Bytes is exact; the flow counters are each
// individually exact but mutually unsynchronized (a Get concurrent with
// Stats may appear in neither or one of them).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Deduped:         c.deduped.Load(),
		Evictions:       c.evictions.Load(),
		PrefetchHits:    c.prefetchHits.Load(),
		PrefetchEvicted: c.prefetchEvicted.Load(),
		Bytes:           c.bytes.Load(),

		LeasesAcquired:    c.leasesAcquired.Load(),
		LeasesActive:      c.leasesActive.Load(),
		RetiredLeaseBufs:  c.retiredBufs.Load(),
		RetiredLeaseBytes: c.retiredBytes.Load(),
	}
}
