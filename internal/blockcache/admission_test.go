package blockcache

import (
	"math"
	"sync"
	"testing"
)

// TestAdmitHorizon: a block is admitted only if it was turned away
// before and at most capacity other blocks were turned away since.
func TestAdmitHorizon(t *testing.T) {
	a := NewAdmission(4)
	if a.Admit(0) {
		t.Fatal("a block never turned away was admitted")
	}
	stamp := a.Skip()
	if !a.Admit(stamp) {
		t.Fatal("a block re-read right after it was turned away was not admitted")
	}
	for range 4 {
		a.Skip()
	}
	if !a.Admit(stamp) {
		t.Fatal("a block re-read after capacity other skips was not admitted")
	}
	a.Skip()
	if a.Admit(stamp) {
		t.Fatal("a block re-read after capacity+1 other skips was admitted")
	}
}

// TestAdmitCounterWrap starts the skip counter just below 2^32: the
// counter passes over 0, so no stamp is 0, a zero stamp still means
// "never turned away", and the distance across the wrap counts only
// real skips.
func TestAdmitCounterWrap(t *testing.T) {
	a := NewAdmission(3)
	a.skips.Store(math.MaxUint32 - 2)
	var stamps []uint32
	for range 6 {
		s := a.Skip()
		if s == 0 {
			t.Fatal("Skip returned the zero stamp")
		}
		stamps = append(stamps, s)
	}
	want := []uint32{math.MaxUint32 - 1, math.MaxUint32, 1, 2, 3, 4}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps across the wrap = %v, want %v", stamps, want)
		}
	}
	// Five skips followed stamps[0] and four followed stamps[1]: with a
	// horizon of three, neither is admitted; stamps[2], three skips
	// before the count, is.
	for i, s := range stamps {
		if got, want := a.Admit(s), i >= 2; got != want {
			t.Errorf("Admit(stamp %d of %v) = %v, want %v", i, stamps, got, want)
		}
	}
	if a.Admit(0) {
		t.Fatal("the zero stamp was admitted after the wrap")
	}

	// Stopped on the wrap: the count reads 0 while the skip that drew
	// it takes the next value. MaxUint32 then has no skip after it.
	a.skips.Store(0)
	if !a.Admit(math.MaxUint32) || !a.Admit(math.MaxUint32-3) || a.Admit(math.MaxUint32-4) {
		t.Fatal("distance from a zero count miscounted the wrap")
	}
}

// TestAdmitConcurrentSkips: skips from many goroutines across the wrap
// get distinct, non-zero stamps, and the count ends at the number of
// skips (plus the passed-over 0).
func TestAdmitConcurrentSkips(t *testing.T) {
	const goroutines, each = 4, 256
	a := NewAdmission(8)
	start := uint32(math.MaxUint32 - 500)
	a.skips.Store(start)
	stamps := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				stamps[g] = append(stamps[g], a.Skip())
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for _, ss := range stamps {
		for _, s := range ss {
			if s == 0 || seen[s] {
				t.Fatalf("stamp %d drawn twice or zero", s)
			}
			seen[s] = true
		}
	}
	if got, want := a.skips.Load(), start+goroutines*each+1; got != want {
		t.Fatalf("count = %d after %d skips, want %d", got, goroutines*each, want)
	}
}
