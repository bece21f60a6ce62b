package blockcache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestLeaseBasics covers the lease lifecycle on a single block: acquire
// aliases the cached bytes, release is idempotent, and the gauges
// round-trip to zero.
func TestLeaseBasics(t *testing.T) {
	c := New(8, 1)
	key := Key{Image: 1, Block: 0}
	want := []byte("hello, lease")
	c.Put(key, want)

	if _, ok := c.AcquirePeek(Key{Image: 1, Block: 99}); ok {
		t.Fatal("AcquirePeek of an absent block succeeded")
	}
	ls, ok := c.AcquirePeek(key)
	if !ok {
		t.Fatal("AcquirePeek missed a resident block")
	}
	if !bytes.Equal(ls.Bytes(), want) {
		t.Fatalf("leased bytes = %q, want %q", ls.Bytes(), want)
	}
	if st := c.Stats(); st.LeasesActive != 1 || st.LeasesAcquired != 1 {
		t.Fatalf("after acquire: %+v", st)
	}
	ls.Release()
	ls.Release() // idempotent on the same value
	if ls.Bytes() != nil {
		t.Fatal("released lease still exposes bytes")
	}
	st := c.Stats()
	if st.LeasesActive != 0 || st.RetiredLeaseBufs != 0 || st.RetiredLeaseBytes != 0 {
		t.Fatalf("after release: %+v", st)
	}

	// AcquirePeek counts no demand hit.
	if got := c.Stats().Hits; got != 0 {
		t.Fatalf("AcquirePeek moved the hit counter to %d", got)
	}
}

// TestLeaseSurvivesEviction pins the core promise: bytes leased before an
// eviction (or image invalidation) stay intact until released, and the
// interim shows up in the retired-lease gauges.
func TestLeaseSurvivesEviction(t *testing.T) {
	c := New(4, 1)
	key := Key{Image: 1, Block: 0}
	want := []byte("block zero payload")
	c.Put(key, want)
	ls, ok := c.AcquirePeek(key)
	if !ok {
		t.Fatal("acquire missed")
	}

	// Flood the single shard so block 0 is evicted out from under the
	// lease.
	for i := 1; i < 32; i++ {
		c.Put(Key{Image: 1, Block: uint32(i)}, []byte(fmt.Sprintf("filler %d", i)))
	}
	if c.Contains(key) {
		t.Fatal("leased block still resident after flood")
	}
	st := c.Stats()
	if st.RetiredLeaseBufs != 1 || st.RetiredLeaseBytes != int64(len(want)) {
		t.Fatalf("retired gauges after eviction: %+v", st)
	}
	if !bytes.Equal(ls.Bytes(), want) {
		t.Fatalf("evicted lease bytes = %q, want %q", ls.Bytes(), want)
	}
	ls.Release()
	st = c.Stats()
	if st.LeasesActive != 0 || st.RetiredLeaseBufs != 0 || st.RetiredLeaseBytes != 0 {
		t.Fatalf("gauges after release: %+v", st)
	}
}

// TestLeakedLeaseSurfacesInGauges is the regression test for the leak
// detector: a lease that is never released must be visible — a nonzero
// LeasesActive, and once its block is replaced, nonzero retired-lease
// gauges — instead of silently pinning memory.
func TestLeakedLeaseSurfacesInGauges(t *testing.T) {
	c := New(8, 1)
	key := Key{Image: 1, Block: 0}
	old := []byte("original bytes")
	c.Put(key, old)
	leaked, ok := c.AcquirePeek(key)
	if !ok {
		t.Fatal("acquire missed")
	}
	// Replace the block in place (the generation-replacement shape) and
	// deliberately never release.
	c.Put(key, []byte("replacement"))

	st := c.Stats()
	if st.LeasesActive != 1 {
		t.Fatalf("leaked lease invisible: LeasesActive = %d", st.LeasesActive)
	}
	if st.RetiredLeaseBufs != 1 || st.RetiredLeaseBytes != int64(len(old)) {
		t.Fatalf("leaked lease's retired buffer invisible: %+v", st)
	}
	if !bytes.Equal(leaked.Bytes(), old) {
		t.Fatal("leaked lease lost its bytes")
	}
	// InvalidateImage must not be blocked by the leak either.
	c.InvalidateImage(1)
	if st := c.Stats(); c.Len() != 0 || st.RetiredLeaseBufs != 1 {
		t.Fatalf("after invalidate: %+v, %d entries", st, c.Len())
	}
	leaked.Release() // keep the pool clean for other tests
}

// TestLeaseHammer is the -race proof of the lease contract: readers hold
// leases and re-verify their bytes while writers evict, replace and
// invalidate the same keys as fast as they can. Any mutation or
// premature free shows up as a byte mismatch (or, under -tags
// leaseguard, a guard panic), and the gauges must drain to zero once
// every lease is released.
func TestLeaseHammer(t *testing.T) {
	const (
		images  = 3
		blocks  = 16
		readers = 8
		writers = 4
		rounds  = 400
	)
	c := New(blocks, 4) // far smaller than images*blocks: constant eviction
	payload := func(img, b, v int) []byte {
		return bytes.Repeat([]byte{byte(img*31 + b*7 + v)}, 64)
	}
	for img := 0; img < images; img++ {
		for b := 0; b < blocks; b++ {
			c.Put(Key{Image: uint32(img), Block: uint32(b)}, payload(img, b, 0))
		}
	}

	var wg sync.WaitGroup
	fail := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint32(seed*2654435761 + 1)
			for i := 0; i < rounds; i++ {
				rng = rng*1664525 + 1013904223
				img := int(rng>>8) % images
				b := int(rng>>4) % blocks
				key := Key{Image: uint32(img), Block: uint32(b)}
				ls, ok := c.AcquirePeek(key)
				if !ok {
					continue
				}
				got := ls.Bytes()
				// The block may be any version the writers have
				// inserted, but it must be internally consistent: all
				// bytes equal, full length.
				if len(got) != 64 {
					fail <- fmt.Sprintf("lease length %d", len(got))
				}
				first := got[0]
				for _, bb := range got {
					if bb != first {
						fail <- "leased bytes mutated while held"
						break
					}
				}
				ls.Release()
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint32(seed*40503 + 7)
			for i := 0; i < rounds; i++ {
				rng = rng*1664525 + 1013904223
				img := int(rng>>8) % images
				b := int(rng>>4) % blocks
				switch rng % 8 {
				case 0:
					// RemoveImage shape: drop every block of the image.
					c.InvalidateImage(uint32(img))
				default:
					// Replace/evict shape: new version, LRU pressure.
					c.Put(Key{Image: uint32(img), Block: uint32(b)},
						payload(img, b, i+1))
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	st := c.Stats()
	if st.LeasesActive != 0 || st.RetiredLeaseBufs != 0 || st.RetiredLeaseBytes != 0 {
		t.Fatalf("lease gauges did not drain: %+v", st)
	}
}

// TestLeaseGuard exercises the leaseguard mutation check when the tag is
// on: mutating leased bytes must panic on release. In default builds the
// guard is compiled out and the test only asserts that release tolerates
// the (forbidden, but undetected) write.
func TestLeaseGuard(t *testing.T) {
	c := New(8, 1)
	key := Key{Image: 1, Block: 0}
	c.Put(key, []byte("do not touch"))
	ls, ok := c.AcquirePeek(key)
	if !ok {
		t.Fatal("acquire missed")
	}
	ls.Bytes()[0] ^= 0xFF
	if guardEnabled {
		defer func() {
			if recover() == nil {
				t.Fatal("mutated lease released without a guard panic")
			}
		}()
		ls.Release()
		t.Fatal("release returned despite the mutation")
	}
	ls.Release()
}

// TestLeaseEvictDirectFree races lease holders against the eviction path
// that frees an unleased buffer on the spot: readers AcquirePeek blocks
// and hold them across a yield while a writer Puts new blocks and new
// versions into a cache a fraction of the keyspace, so every Put evicts
// or replaces. A buffer freed while a lease still held it would be
// recycled into a later insert and change under its reader (under
// -tags leaseguard the release also panics). Afterwards the lease
// gauges must drain to zero and Bytes must equal the resident payload.
func TestLeaseEvictDirectFree(t *testing.T) {
	const (
		keys    = 96
		readers = 6
		rounds  = 20000
	)
	c := New(24, 4)
	payload := func(b, v int) []byte {
		return bytes.Repeat([]byte{byte(b*7 + v)}, 16+(b+v)%48)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			var (
				leases [4]Lease
				held   [4][]byte
			)
			for {
				select {
				case <-done:
					return
				default:
				}
				n := 0
				for n < len(leases) {
					rng = rng*1664525 + 1013904223
					if ls, ok := c.AcquirePeek(Key{Image: 1, Block: (rng >> 8) % keys}); ok {
						leases[n] = ls
						held[n] = append(held[n][:0], ls.Bytes()...)
						n++
					}
				}
				runtime.Gosched()
				for i := range leases {
					if !bytes.Equal(leases[i].Bytes(), held[i]) {
						select {
						case fail <- "leased bytes changed while held":
						default:
						}
					}
					leases[i].Release()
				}
			}
		}(uint32(r))
	}
	rng := uint32(7)
	for i := 0; i < rounds; i++ {
		rng = rng*1664525 + 1013904223
		b := int(rng>>8) % keys
		c.Put(Key{Image: 1, Block: uint32(b)}, payload(b, i))
	}
	close(done)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("writer forced no evictions")
	}
	if st.LeasesActive != 0 || st.RetiredLeaseBufs != 0 || st.RetiredLeaseBytes != 0 {
		t.Fatalf("lease gauges did not drain: %+v", st)
	}
	resident := 0
	for b := uint32(0); b < keys; b++ {
		if v, ok := c.Peek(Key{Image: 1, Block: b}); ok {
			resident += len(v)
		}
	}
	if st.Bytes != int64(resident) {
		t.Fatalf("Bytes = %d, resident payload %d", st.Bytes, resident)
	}
}
