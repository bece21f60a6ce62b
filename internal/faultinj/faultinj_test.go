package faultinj

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memCodec is a trivial in-memory BlockCodec: block i is 32 bytes of i.
type memCodec struct{ blocks int }

func (c *memCodec) NumBlocks() int { return c.blocks }
func (c *memCodec) AppendBlock(dst []byte, i int) ([]byte, error) {
	for k := 0; k < 32; k++ {
		dst = append(dst, byte(i))
	}
	return dst, nil
}
func (c *memCodec) Block(i int) ([]byte, error) { return c.AppendBlock(nil, i) }
func (c *memCodec) Decompress() ([]byte, error) {
	var out []byte
	for i := 0; i < c.blocks; i++ {
		b, _ := c.Block(i)
		out = append(out, b...)
	}
	return out, nil
}
func (c *memCodec) CompressedSize() int { return c.blocks * 8 }
func (c *memCodec) Ratio() float64      { return 0.25 }

// faultCounts tallies injected faults by kind through Options.Hook, the
// way the serving layer's faultinj_* counters do.
type faultCounts [4]atomic.Int64

func (c *faultCounts) hook(k Kind) { c[k].Add(1) }

func (c *faultCounts) total() int64 {
	var n int64
	for k := range c {
		n += c[k].Load()
	}
	return n
}

func TestPassThroughWhenZeroOptions(t *testing.T) {
	inner := &memCodec{blocks: 8}
	var c faultCounts
	j := New(inner, Options{Hook: c.hook})
	if j.NumBlocks() != 8 || j.CompressedSize() != 64 || j.Ratio() != 0.25 {
		t.Fatal("metadata not delegated")
	}
	for i := 0; i < 8; i++ {
		got, err := j.Block(i)
		want, _ := inner.Block(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Block(%d) = %v, %v", i, got, err)
		}
	}
	full, err := j.Decompress()
	wantFull, _ := inner.Decompress()
	if err != nil || !bytes.Equal(full, wantFull) {
		t.Fatal("Decompress not delegated")
	}
	if loads, faults := j.seq.Load(), c.total(); loads != 8 || faults != 0 {
		t.Fatalf("%d loads, %d faults; want 8 and 0", loads, faults)
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	run := func() []string {
		j := New(&memCodec{blocks: 4}, Options{Seed: 7, BitFlipRate: 0.3, TransientRate: 0.3})
		var log []string
		clean, _ := (&memCodec{blocks: 4}).Block(1)
		for i := 0; i < 200; i++ {
			data, err := j.Block(1)
			switch {
			case err != nil:
				log = append(log, "err")
			case !bytes.Equal(data, clean):
				log = append(log, "flip:"+string(data))
			default:
				log = append(log, "ok")
			}
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at load %d: %q vs %q", i, a[i], b[i])
		}
	}
	// A different seed must give a different sequence.
	j := New(&memCodec{blocks: 4}, Options{Seed: 8, BitFlipRate: 0.3, TransientRate: 0.3})
	diff := false
	clean, _ := (&memCodec{blocks: 4}).Block(1)
	for i := 0; i < 200; i++ {
		data, err := j.Block(1)
		var got string
		switch {
		case err != nil:
			got = "err"
		case !bytes.Equal(data, clean):
			got = "flip:" + string(data)
		default:
			got = "ok"
		}
		if got != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical fault sequences")
	}
}

func TestRatesApproximatelyHold(t *testing.T) {
	const n = 20000
	var c faultCounts
	j := New(&memCodec{blocks: 2}, Options{Seed: 1, BitFlipRate: 0.10, TransientRate: 0.05, Hook: c.hook})
	for i := 0; i < n; i++ {
		j.Block(0) //nolint:errcheck — counting via the hook
	}
	// Transients gate before flips; both rates should land within ±40%
	// of nominal over 20k draws.
	checkRate := func(name string, got int64, want float64) {
		r := float64(got) / n
		if r < want*0.6 || r > want*1.4 {
			t.Errorf("%s rate = %.4f, want ≈ %.2f", name, r, want)
		}
	}
	checkRate("transient", c[KindTransient].Load(), 0.05)
	checkRate("bitflip", c[KindBitFlip].Load(), 0.10*0.95)
}

func TestBitFlipChangesExactlyOneBit(t *testing.T) {
	inner := &memCodec{blocks: 2}
	j := New(inner, Options{Seed: 3, BitFlipRate: 1})
	clean, _ := inner.Block(1)
	for i := 0; i < 50; i++ {
		got, err := j.Block(1)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for k := range got {
			x := got[k] ^ clean[k]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("load %d flipped %d bits", i, diff)
		}
	}
	// The wrapped codec's own buffer must never be mutated.
	again, _ := inner.Block(1)
	if !bytes.Equal(again, clean) {
		t.Fatal("injector mutated the inner codec's output")
	}
}

func TestPermanentAndPanicBlocks(t *testing.T) {
	var c faultCounts
	j := New(&memCodec{blocks: 8}, Options{ErrorBlocks: []int{2}, PanicBlocks: []int{5}, Hook: c.hook})
	for i := 0; i < 3; i++ {
		if _, err := j.Block(2); err == nil {
			t.Fatal("permanent block served")
		}
		var te *TransientError
		if _, err := j.Block(2); errors.As(err, &te) {
			t.Fatal("permanent error claims to be transient")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("panic block did not panic")
				}
			}()
			j.Block(5) //nolint:errcheck
		}()
	}
	if perm, panics := c[KindPermanent].Load(), c[KindPanic].Load(); perm != 6 || panics != 3 {
		t.Fatalf("%d permanent errors, %d panics; want 6 and 3", perm, panics)
	}
	// Other blocks are unaffected.
	if _, err := j.Block(0); err != nil {
		t.Fatal(err)
	}
}

func TestTransientErrorIsTemporary(t *testing.T) {
	j := New(&memCodec{blocks: 2}, Options{TransientRate: 1})
	_, err := j.Block(0)
	var te *TransientError
	if !errors.As(err, &te) || !te.Temporary() {
		t.Fatalf("err = %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	j := New(&memCodec{blocks: 2}, Options{Latency: 20 * time.Millisecond})
	start := time.Now()
	if _, err := j.Block(0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("load returned in %v, want ≥ 20ms", d)
	}
}

// TestAppendBlockMatchesBlock replays one seeded load sequence through
// Block on one injector and through AppendBlock on another: every load
// draws the same fault kind and yields the same bytes, the hook sees the
// same faults in the same order, and a bit flip never reaches the
// caller's dst prefix.
func TestAppendBlockMatchesBlock(t *testing.T) {
	opts := func(kinds *[]Kind) Options {
		return Options{
			Seed: 11, BitFlipRate: 0.3, TransientRate: 0.2,
			ErrorBlocks: []int{3}, PanicBlocks: []int{6},
			Hook: func(k Kind) { *kinds = append(*kinds, k) },
		}
	}
	var blockKinds, appendKinds []Kind
	viaBlock := New(&memCodec{blocks: 8}, opts(&blockKinds))
	viaAppend := New(&memCodec{blocks: 8}, opts(&appendKinds))
	// load runs one load and reports its bytes, its error text or
	// "panic".
	load := func(f func() ([]byte, error)) (data []byte, outcome string) {
		defer func() {
			if recover() != nil {
				outcome = "panic"
			}
		}()
		data, err := f()
		if err != nil {
			return nil, err.Error()
		}
		return data, "ok"
	}
	prefix := []byte("caller's prefix")
	dst := make([]byte, 0, 64)
	for n := 0; n < 400; n++ {
		i := n % 8
		want, wantOutcome := load(func() ([]byte, error) { return viaBlock.Block(i) })
		got, gotOutcome := load(func() ([]byte, error) {
			return viaAppend.AppendBlock(append(dst[:0], prefix...), i)
		})
		if gotOutcome != wantOutcome {
			t.Fatalf("load %d (block %d): AppendBlock %q, Block %q", n, i, gotOutcome, wantOutcome)
		}
		if gotOutcome != "ok" {
			continue
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("load %d (block %d): AppendBlock touched the dst prefix: %q", n, i, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("load %d (block %d): AppendBlock %x, Block %x", n, i, got[len(prefix):], want)
		}
	}
	seen := make(map[Kind]bool)
	for _, k := range blockKinds {
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Fatalf("sequence misses a fault kind: saw %v", seen)
	}
	if len(appendKinds) != len(blockKinds) {
		t.Fatalf("hook saw %d faults via AppendBlock, %d via Block", len(appendKinds), len(blockKinds))
	}
	for n := range blockKinds {
		if appendKinds[n] != blockKinds[n] {
			t.Fatalf("fault %d: AppendBlock %v, Block %v", n, appendKinds[n], blockKinds[n])
		}
	}
}

// TestConcurrentLoads is the -race proof: many goroutines drawing faults
// simultaneously must not race, and every load must be numbered.
func TestConcurrentLoads(t *testing.T) {
	var c faultCounts
	j := New(&memCodec{blocks: 16}, Options{Seed: 9, BitFlipRate: 0.2, TransientRate: 0.2, Hook: c.hook})
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Block(i % 16) //nolint:errcheck
			}
		}(g)
	}
	wg.Wait()
	if loads := j.seq.Load(); loads != goroutines*per {
		t.Fatalf("loads = %d, want %d", loads, goroutines*per)
	}
	if c[KindBitFlip].Load() == 0 || c[KindTransient].Load() == 0 {
		t.Fatal("no faults under concurrency")
	}
}
