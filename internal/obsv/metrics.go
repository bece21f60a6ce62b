package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are lock-free and allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obsv: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are lock-free and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucketOf maps any non-negative
// int64 into [0, 63], so 64 buckets cover every possible observation.
const histBuckets = 64

// Histogram is a log-bucketed distribution of durations. Bucket i holds
// observations v (in nanoseconds) with bits.Len64(v) == i: bucket 0 is
// exactly 0, bucket 1 is 1 ns, bucket 2 is [2,4) ns, bucket i is
// [2^(i-1), 2^i) ns. Observe is an index computation plus four atomic
// adds — no locks, no allocation — so it can sit on the block-decode hot
// path. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketOf maps a non-negative observation to its bucket index.
func bucketOf(v int64) int { return bits.Len64(uint64(v)) }

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one observation in nanoseconds.
func (h *Histogram) ObserveNs(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// raiseMax makes v the maximum if it is larger.
func (h *Histogram) raiseMax(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistogramBatch collects observations for a Histogram on one goroutine
// without atomics, to publish them later with Histogram.Merge. A worker
// that observes a value per block of a multi-block job pays a plain
// increment per value and the histogram's atomics once per job. The
// zero value is empty and ready to use; a batch is not safe for
// concurrent use.
type HistogramBatch struct {
	buckets [histBuckets]int64
	// used has bit i set while buckets[i] is nonzero, so Merge visits
	// only the buckets the batch touched.
	used  uint64
	count int64
	sum   int64
	max   int64
}

// Observe records one duration. Negative durations clamp to zero.
func (b *HistogramBatch) Observe(d time.Duration) { b.ObserveNs(int64(d)) }

// ObserveNs records one observation in nanoseconds, clamped like
// Histogram.ObserveNs.
func (b *HistogramBatch) ObserveNs(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketOf(v)
	b.buckets[i]++
	b.used |= 1 << i
	b.count++
	b.sum += v
	if v > b.max {
		b.max = v
	}
}

// Count returns the number of observations collected since the last
// Merge.
func (b *HistogramBatch) Count() int64 { return b.count }

// Merge publishes the batch's observations into h and empties the
// batch. h then holds exactly what it would hold had each value been
// passed to h.ObserveNs: the same count, sum, maximum and buckets.
func (h *Histogram) Merge(b *HistogramBatch) {
	if b.count == 0 {
		return
	}
	for m := b.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		h.buckets[i].Add(b.buckets[i])
		b.buckets[i] = 0
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	h.raiseMax(b.max)
	b.used, b.count, b.sum, b.max = 0, 0, 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram. The flow
// fields are each individually exact but mutually unsynchronized (an
// Observe concurrent with Snapshot may appear in some and not others) —
// fine for monitoring, same as every production metrics system.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the total of all observations, in nanoseconds.
	Sum int64 `json:"sum_ns"`
	// Max is the largest observation ever recorded, in nanoseconds.
	Max int64 `json:"max_ns"`
	// Buckets[i] counts observations v with bits.Len64(v) == i; trailing
	// empty buckets are trimmed.
	Buckets []int64 `json:"buckets"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	top := -1
	var buckets [histBuckets]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			buckets[i] = n
			top = i
		}
	}
	s.Buckets = append([]int64(nil), buckets[:top+1]...)
	return s
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// distribution by locating the bucket holding the quantile rank and
// interpolating linearly inside it. The estimate always lies within that
// bucket's bounds, so it is within a factor of two of the exact sample
// quantile. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			// The top bucket's true upper edge is the recorded maximum.
			if cum+n == s.Count && s.Max >= lo && s.Max < hi {
				hi = s.Max
			}
			frac := float64(target-cum) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(s.Max)
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Sub returns the observations recorded between prev and s as a
// snapshot of its own (element-wise s minus prev), so windowed signals
// — "the queue waits of the last 250ms" — can be computed from two
// scrapes of a cumulative histogram. prev must be an earlier snapshot
// of the same histogram; anything inconsistent (counts running
// backwards, as after a restart) collapses to the empty snapshot. Max
// cannot be differenced and is carried over from s, so the delta's
// Quantile stays a valid within-one-bucket estimate but its top edge
// reflects the lifetime maximum.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum, Max: s.Max}
	if out.Count < 0 || out.Sum < 0 || len(prev.Buckets) > len(s.Buckets) {
		return HistogramSnapshot{}
	}
	top := -1
	buckets := make([]int64, len(s.Buckets))
	for i, n := range s.Buckets {
		if i < len(prev.Buckets) {
			n -= prev.Buckets[i]
		}
		if n < 0 {
			return HistogramSnapshot{}
		}
		if n > 0 {
			buckets[i] = n
			top = i
		}
	}
	out.Buckets = buckets[:top+1]
	return out
}
