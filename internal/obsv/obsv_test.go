package obsv

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help")
	b := reg.Counter("x_total", "help")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instrument")
	}
	v1 := reg.CounterVec("y_total", "help", "route")
	v2 := reg.CounterVec("y_total", "help", "route")
	if v1.With("a") != v2.With("a") {
		t.Fatal("vec series not shared across re-registration")
	}
	if v1.With("a") == v1.With("b") {
		t.Fatal("distinct label values share an instrument")
	}
}

func TestRegistryCollisionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(reg *Registry)
	}{
		{"type mismatch", func(reg *Registry) { reg.Counter("m", "h"); reg.Gauge("m", "h") }},
		{"label mismatch", func(reg *Registry) { reg.CounterVec("m", "h", "a"); reg.CounterVec("m", "h", "b") }},
		{"func-ness mismatch", func(reg *Registry) { reg.Counter("m", "h"); reg.CounterFunc("m", "h", func() float64 { return 0 }) }},
		{"bad name", func(reg *Registry) { reg.Counter("2bad", "h") }},
		{"bad label", func(reg *Registry) { reg.CounterVec("m", "h", "bad-label") }},
		{"arity mismatch", func(reg *Registry) { reg.CounterVec("m", "h", "a", "b").With("only-one") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.fn(NewRegistry())
		})
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "ab_c", "A:b", "x9", "_x"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a b", "a\xffb"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestFamiliesSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zzz_total", "z")
	reg.Gauge("aaa", "a")
	reg.HistogramVec("mmm_seconds", "m", "route")
	fams := reg.Families()
	if len(fams) != 3 {
		t.Fatalf("got %d families", len(fams))
	}
	if fams[0].Name != "aaa" || fams[1].Name != "mmm_seconds" || fams[2].Name != "zzz_total" {
		t.Fatalf("families not sorted: %+v", fams)
	}
	if len(fams[1].Labels) != 1 || fams[1].Labels[0] != "route" {
		t.Fatalf("labels not reported: %+v", fams[1])
	}
}

// TestPrometheusRoundTrip writes a populated registry in the text
// exposition format and reads it back with ParsePrometheus, asserting
// every value survives — the acceptance-criteria parser round-trip.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "Total requests.").Add(42)
	reg.Gauge("inflight", "In-flight requests.").Set(3)
	v := reg.CounterVec("errors_total", "Errors by route.", "route", "code")
	v.With("block", "500").Add(7)
	v.With(`we"ird\path`+"\n", "404").Inc()
	h := reg.Histogram("load_seconds", "Load latency.")
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond} {
		h.Observe(d)
	}
	hv := reg.HistogramVec("route_seconds", "Per-route latency.", "route")
	hv.With("block").Observe(2 * time.Millisecond)
	reg.GaugeFunc("queue_depth", "Queue depth.", func() float64 { return 9 })
	reg.CounterFunc("hits_total", "Cache hits.", func() float64 { return 1234 })

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	p, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}

	if got, _ := p.Value("reqs_total", nil); got != 42 {
		t.Errorf("reqs_total = %v, want 42", got)
	}
	if got, _ := p.Value("inflight", nil); got != 3 {
		t.Errorf("inflight = %v, want 3", got)
	}
	if got, _ := p.Value("errors_total", map[string]string{"route": "block", "code": "500"}); got != 7 {
		t.Errorf("errors_total{block,500} = %v, want 7", got)
	}
	if got, _ := p.Value("errors_total", map[string]string{"route": `we"ird\path` + "\n", "code": "404"}); got != 1 {
		t.Errorf("escaped label round-trip failed: %v", got)
	}
	if got, _ := p.Value("queue_depth", nil); got != 9 {
		t.Errorf("queue_depth = %v, want 9", got)
	}
	if got, _ := p.Value("hits_total", nil); got != 1234 {
		t.Errorf("hits_total = %v, want 1234", got)
	}

	lh, ok := p.Histogram("load_seconds", nil)
	if !ok {
		t.Fatal("load_seconds histogram missing")
	}
	if lh.Count != 4 {
		t.Errorf("load_seconds count = %v, want 4", lh.Count)
	}
	wantSum := (time.Microsecond + 50*time.Microsecond + time.Millisecond + 20*time.Millisecond).Seconds()
	if math.Abs(lh.Sum-wantSum) > 1e-9 {
		t.Errorf("load_seconds sum = %v, want %v", lh.Sum, wantSum)
	}
	// Bucket monotonicity and +Inf terminal.
	var prev float64 = -1
	for _, b := range lh.Buckets {
		if b.Count < prev {
			t.Errorf("bucket counts not monotone at le=%v", b.LE)
		}
		prev = b.Count
	}
	last := lh.Buckets[len(lh.Buckets)-1]
	if !math.IsInf(last.LE, 1) || last.Count != 4 {
		t.Errorf("terminal bucket = %+v, want +Inf/4", last)
	}
	// Parsed quantile lands within a factor of two of the largest sample.
	if p99 := lh.QuantileDuration(0.99); p99 < 10*time.Millisecond || p99 > 40*time.Millisecond {
		t.Errorf("parsed p99 = %v, want ~20ms", p99)
	}

	if rh, ok := p.Histogram("route_seconds", map[string]string{"route": "block"}); !ok || rh.Count != 1 {
		t.Errorf("route_seconds{block} = %+v ok=%v", rh, ok)
	}

	// TYPE/HELP lines survive.
	if p["load_seconds"].Type != "histogram" || p["load_seconds"].Help == "" {
		t.Errorf("load_seconds family meta: %+v", p["load_seconds"])
	}
	if !strings.Contains(text, `version=0.0.4`) == strings.Contains(PrometheusContentType, "0.0.4") {
		// sanity: content type constant advertises the format we emit
	}
}

func TestParsedHistogramSub(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d_seconds", "d")
	h.Observe(time.Millisecond)

	scrape := func() ParsedHistogram {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ph, ok := p.Histogram("d_seconds", nil)
		if !ok {
			t.Fatal("missing histogram")
		}
		return ph
	}

	before := scrape()
	h.Observe(8 * time.Millisecond)
	h.Observe(9 * time.Millisecond)
	after := scrape()

	delta := after.Sub(before)
	if delta.Count != 2 {
		t.Fatalf("delta count = %v, want 2", delta.Count)
	}
	if math.Abs(delta.Sum-0.017) > 1e-9 {
		t.Fatalf("delta sum = %v, want 0.017", delta.Sum)
	}
	if p50 := delta.QuantileDuration(0.5); p50 < 4*time.Millisecond || p50 > 16*time.Millisecond {
		t.Fatalf("delta p50 = %v, want ~8ms", p50)
	}
	if mean := delta.Mean(); math.Abs(mean-0.0085) > 1e-9 {
		t.Fatalf("delta mean = %v", mean)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("c_total", "c", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for i := 0; i < 1000; i++ {
				vec.With(keys[i%len(keys)]).Inc()
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, k := range []string{"a", "b", "c", "d"} {
		total += vec.With(k).Value()
	}
	if total != 8*1000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}
