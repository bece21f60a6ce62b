package obsv

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1<<20 - 1, 20},
		{1 << 20, 21},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	// Every value must fall inside the bounds of its own bucket, and the
	// buckets must tile [0, MaxInt64] without gaps or overlaps.
	cases := []struct {
		i              int
		wantLo, wantHi int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{63, 1 << 62, math.MaxInt64},
	}
	for _, c := range cases {
		lo, hi := bucketBounds(c.i)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("bucketBounds(%d) = [%d,%d], want [%d,%d]", c.i, lo, hi, c.wantLo, c.wantHi)
		}
	}
	var prevHi int64 = -1
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo=%d, want %d (no gap/overlap)", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d: hi=%d < lo=%d", i, hi, lo)
		}
		prevHi = hi
	}
	if prevHi != math.MaxInt64 {
		t.Fatalf("buckets end at %d, want MaxInt64", prevHi)
	}
}

func TestHistogramObserveBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 100, 1000, -5} {
		h.ObserveNs(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 0+1+3+100+1000+0 {
		t.Fatalf("Sum = %d, want 1104", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("Max = %d, want 1000", s.Max)
	}
	// -5 clamps to 0, so bucket 0 holds two observations.
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("h.Count() = %d, want 6", got)
	}
	if mean := s.Mean(); mean != time.Duration(1104/6) {
		t.Fatalf("Mean = %v", mean)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("empty mean = %v, want 0", m)
	}
	if len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot has %d buckets", len(s.Buckets))
	}
}

// exactQuantile computes the ceil-rank sample quantile of a sorted slice.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileErrorBound drives random workloads through the histogram and
// asserts the interpolated quantile estimate stays within the bounds of
// the bucket holding the exact quantile — i.e. within a factor of two of
// the exact sorted-sample quantile (modulo the exact value's own bucket).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 1_000_000 + rng.Int63n(1_000_000)
			}
			return rng.Int63n(1000)
		},
		"constant": func() int64 { return 4096 },
	}
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	for name, draw := range dists {
		var h Histogram
		samples := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := draw()
			samples = append(samples, v)
			h.ObserveNs(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		for _, q := range quantiles {
			exact := exactQuantile(samples, q)
			est := int64(s.Quantile(q))
			lo, hi := bucketBounds(bucketOf(exact))
			if s.Max < hi && s.Max >= lo {
				hi = s.Max // top-bucket clamp mirrors Quantile's
			}
			if est < lo || est > hi {
				t.Errorf("%s p%v: estimate %d outside bucket [%d,%d] of exact %d",
					name, q*100, est, lo, hi, exact)
			}
			// The documented bound: within a factor of two (plus 1 ns of
			// slack for the 0/1 buckets).
			if exact > 1 && (float64(est) > 2*float64(exact) || float64(est) < float64(exact)/2) {
				t.Errorf("%s p%v: estimate %d not within 2x of exact %d", name, q*100, est, exact)
			}
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.ObserveNs(rng.Int63n(1 << 30))
	}
	s := h.Snapshot()
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := s.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: p%.0f=%v < p%.0f=%v", q*100, cur, (q-0.01)*100, prev)
		}
		prev = cur
	}
	if s.Quantile(1) > time.Duration(s.Max) {
		t.Fatalf("p100 %v exceeds max %d", s.Quantile(1), s.Max)
	}
	// Out-of-range q clamps.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Fatal("out-of-range quantiles do not clamp")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10_000
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.ObserveNs(rng.Int63n(1 << 40))
			}
			done <- struct{}{}
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var cum int64
	for _, n := range s.Buckets {
		cum += n
	}
	if cum != s.Count {
		t.Fatalf("bucket total %d != count %d", cum, s.Count)
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	var h Histogram
	h.ObserveNs(3)
	h.ObserveNs(100)
	before := h.Snapshot()
	h.ObserveNs(1000)
	h.ObserveNs(1100)
	after := h.Snapshot()

	d := after.Sub(before)
	if d.Count != 2 || d.Sum != 2100 {
		t.Fatalf("delta = %+v, want Count 2 Sum 2100", d)
	}
	var cum int64
	for _, n := range d.Buckets {
		cum += n
	}
	if cum != 2 {
		t.Fatalf("delta bucket total = %d, want 2", cum)
	}
	// Both delta observations land near 1000; the windowed quantile must
	// ignore the two small pre-window samples.
	if q := d.Quantile(0.5); q < 512 {
		t.Fatalf("delta median = %v, polluted by pre-window samples", q)
	}
	if empty := before.Sub(after); empty.Count != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("reversed Sub = %+v, want empty snapshot", empty)
	}
	if same := after.Sub(after); same.Count != 0 || len(same.Buckets) != 0 {
		t.Fatalf("self Sub = %+v, want empty", same)
	}
}

// TestHistogramBatchMergeMatchesObserve: observations collected in a
// batch and merged give the same snapshot as the same values observed
// one by one, including zero, negative (clamped) and maximal values,
// and a merged batch is empty and reusable.
func TestHistogramBatchMergeMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rounds := [][]int64{
		{0, -5, math.MinInt64, 1, math.MaxInt64, 1 << 40},
		{},
		{3, 3, 3},
	}
	var random []int64
	for i := 0; i < 500; i++ {
		random = append(random, rng.Int63n(1<<uint(rng.Intn(40)+1))-100)
	}
	rounds = append(rounds, random)

	var direct, merged Histogram
	var b HistogramBatch
	direct.ObserveNs(17) // prior state both histograms share
	merged.ObserveNs(17)
	for i, vals := range rounds {
		for _, v := range vals {
			direct.ObserveNs(v)
			b.ObserveNs(v)
		}
		if b.Count() != int64(len(vals)) {
			t.Fatalf("round %d: batch count %d, want %d", i, b.Count(), len(vals))
		}
		merged.Merge(&b)
		if b.Count() != 0 || b != (HistogramBatch{}) {
			t.Fatalf("round %d: batch not empty after Merge", i)
		}
		d, m := direct.Snapshot(), merged.Snapshot()
		if d.Count != m.Count || d.Sum != m.Sum || d.Max != m.Max || !slices.Equal(d.Buckets, m.Buckets) {
			t.Fatalf("round %d: merged %+v, observed %+v", i, m, d)
		}
	}
	if got := merged.Snapshot().Max; got != math.MaxInt64 {
		t.Fatalf("max = %d, want MaxInt64", got)
	}
}
