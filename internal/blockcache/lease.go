// Lease layer: refcounted read-only views of cached blocks.
//
// Get and Peek hand out the cache's internal slice with no lifetime
// contract beyond "the garbage collector keeps it alive"; nothing tells
// the operator how much evicted memory readers are still pinning, and
// nothing catches a caller that scribbles on a cached block. A Lease
// makes the hand-off explicit: AcquirePeek takes a reference on the block's
// backing buffer, eviction, replacement and invalidation merely
// retire the buffer (drop the cache's own reference), and the actual
// free — the accounting event, in a garbage-collected runtime — happens
// when the last reference goes away. The gauges this layer maintains
// (LeasesActive, RetiredLeaseBufs/RetiredLeaseBytes in Stats) are the
// leak detector: a lease that is never released shows up as a
// permanently nonzero leases-active count and, once its block is
// evicted, as retired bytes that never drain.
//
// Under the leaseguard build tag, Release re-checks a CRC taken at
// insert time and panics if the leased bytes were mutated while held —
// the debug mutation guard CI's dedicated race pass runs with.
package blockcache

import (
	"sync"
	"sync/atomic"
)

// leaseBuf is the refcounted backing store of one cached block. The
// cache's own reference counts as one; every outstanding Lease adds
// one. Buffers are pooled: the struct (never the data it points to) is
// recycled when the last reference drops, so the steady-state miss path
// costs one allocation — the block copy itself — exactly as before.
type leaseBuf struct {
	data []byte
	refs atomic.Int64
	// crc is the insert-time checksum of data, populated only under the
	// leaseguard build tag and re-checked on Release.
	crc uint32
}

var leaseBufPool = sync.Pool{New: func() any { return &leaseBuf{} }}

// newLeaseBuf wraps data with the cache's own reference already taken.
func newLeaseBuf(data []byte) *leaseBuf {
	b := leaseBufPool.Get().(*leaseBuf)
	b.data = data
	b.refs.Store(1)
	if guardEnabled {
		b.crc = guardSum(data)
	}
	return b
}

// retire drops the cache's reference after the entry left the table
// (evict, replace, invalidate). The caller holds the entry's shard lock,
// and leases are only taken under that lock, so a buffer whose sole
// reference is the cache's cannot gain one: it is freed on the spot,
// without touching the retired gauges. Otherwise the buffer joins the
// retired gauges before the reference drops, so a concurrent Release
// that observes the final reference also observes the gauge
// contribution it must undo.
func (b *leaseBuf) retire(c *Cache) {
	if b.refs.Load() == 1 {
		b.recycle()
		return
	}
	c.retiredBufs.Add(1)
	c.retiredBytes.Add(int64(len(b.data)))
	if b.refs.Add(-1) == 0 {
		b.freeRetired(c)
	}
}

// freeRetired undoes the retired-gauge contribution and recycles the
// struct. Called exactly once, by whoever drops the last reference of a
// retired buffer.
func (b *leaseBuf) freeRetired(c *Cache) {
	c.retiredBufs.Add(-1)
	c.retiredBytes.Add(-int64(len(b.data)))
	b.recycle()
}

// recycle clears a buffer nobody references and returns it to the pool.
func (b *leaseBuf) recycle() {
	b.data = nil
	b.crc = 0
	leaseBufPool.Put(b)
}

// Lease is a refcounted read-only view of one cached block. The zero
// value is an empty, released lease. A Lease is a plain value — copying
// it aliases the same reference, so exactly one copy must Release. The
// bytes stay valid (and, cache-side, unmodified) until Release, across
// any concurrent eviction, replacement or image removal.
type Lease struct {
	buf *leaseBuf
	c   *Cache
}

// Bytes returns the leased block. It aliases the cache's buffer: the
// caller must treat it as read-only and must not use it after Release.
func (l *Lease) Bytes() []byte {
	if l.buf == nil {
		return nil
	}
	return l.buf.data
}

// Release drops the lease's reference. Idempotent on the same Lease
// value; releasing the last reference of an evicted block completes the
// deferred free and drains the retired gauges. Under the leaseguard
// build tag it first re-checks the block's insert-time CRC and panics
// if the leased bytes were mutated while held.
func (l *Lease) Release() {
	b := l.buf
	if b == nil {
		return
	}
	l.buf = nil
	if guardEnabled && b.crc != guardSum(b.data) {
		panic("blockcache: leased block mutated while held")
	}
	l.c.leasesActive.Add(-1)
	if b.refs.Add(-1) == 0 {
		b.freeRetired(l.c)
	}
}

// AcquirePeek returns a lease on key with Peek semantics: no LRU
// promotion, no hit/miss or prefetch accounting — only the lease
// counters move. The batched range path uses it so leased reassembly
// does not distort demand accounting, exactly as Peek does for the
// copying path.
func (c *Cache) AcquirePeek(key Key) (Lease, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, found := s.entries[key]
	if !found {
		s.mu.Unlock()
		return Lease{}, false
	}
	b := e.buf
	b.refs.Add(1)
	s.mu.Unlock()
	c.leasesActive.Add(1)
	c.leasesAcquired.Add(1)
	return Lease{buf: b, c: c}, true
}
