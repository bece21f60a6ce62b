package obsv

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestObserveZeroAlloc is the CI-gated proof that the hot-path pattern —
// one counter increment plus one histogram observation — never allocates.
func TestObserveZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	h := reg.Histogram("op_seconds", "latency")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1234 * time.Nanosecond)
	}); n != 0 {
		t.Fatalf("counter+histogram hot path allocates %v per op, want 0", n)
	}
	g := reg.Gauge("depth", "depth")
	if n := testing.AllocsPerRun(1000, func() {
		g.Add(1)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("gauge hot path allocates %v per op, want 0", n)
	}
}

// BenchmarkObserve is the headline hot-path benchmark: one counter
// increment plus one histogram observation, the exact instrumentation
// added to the block-load path. cmd/bench gates its cost as a ratio
// against BenchmarkAtomicAddReference.
func BenchmarkObserve(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	h := reg.Histogram("op_seconds", "latency")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.ObserveNs(int64(i) & 0xfffff)
	}
}

// BenchmarkCounterInc measures a bare counter increment.
func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve measures a bare histogram observation.
func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("op_seconds", "latency")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNs(int64(i) & 0xfffff)
	}
}

// BenchmarkAtomicAddReference is the floor: a single uninstrumented
// atomic add, the cheapest possible mutation on this hardware. cmd/bench
// expresses the instrument costs as multiples of this.
func BenchmarkAtomicAddReference(b *testing.B) {
	var v atomic.Int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Add(1)
	}
}

// BenchmarkObserveParallel exercises the contended case — many goroutines
// hammering one histogram — to expose cache-line effects.
func BenchmarkObserveParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	h := reg.Histogram("op_seconds", "latency")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			c.Inc()
			h.ObserveNs(i & 0xfffff)
		}
	})
}

// BenchmarkWritePrometheus measures a full scrape of a realistically
// sized registry (a few dozen families).
func BenchmarkWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		reg.Counter(n+"_total", "counter "+n).Add(12345)
		reg.Gauge(n+"_gauge", "gauge "+n).Set(42)
		hist := reg.Histogram(n+"_seconds", "hist "+n)
		for i := 0; i < 1000; i++ {
			hist.ObserveNs(int64(i) * 1000)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.WritePrometheus(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
