// Package obsv is the serving stack's observability layer: a
// dependency-free metrics registry (counters, gauges, log-bucketed
// latency histograms), Prometheus-text and JSON exposition, a parser for
// the text form, and a lightweight per-request tracer.
//
// The paper this repository reproduces lives or dies on measurement —
// compression ratio, per-block decode cost, cache behaviour — and the
// serving layer built on top of it (internal/romserver, cmd/codecompd)
// needs the same visibility at runtime: not just how many blocks were
// decompressed, but how long a demand read waited in the pool queue, what
// the p99 decode latency looks like under faults, and what exactly one
// slow request did. This package provides the three instruments that
// answer those questions, built so the hot path can afford them:
//
//   - Counter and Gauge are single atomic words. Inc/Add/Set are one
//     atomic RMW, allocation-free, safe for any concurrency.
//   - Histogram buckets observations by power of two (bucket i holds
//     values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i)), so
//     Observe is an index computation plus four atomic adds — no locks,
//     no allocation, no sampling. Snapshots estimate p50/p90/p99 by
//     interpolating inside the bucket holding the quantile rank; the
//     estimate is always within the bucket's bounds, i.e. within a
//     factor of two of the exact sample quantile (histogram_test.go
//     proves the bound against exact sorted-sample quantiles).
//   - Tracer records a ring of the last N request traces: one Span per
//     sampled request, with named phases (queue wait, decode, verify)
//     and free-form events (retries, cache hits). Sampling keeps the
//     cost off the common path; the ring keeps memory bounded.
//
// # Registry
//
// A Registry owns metric families. A family has a name, a help string, a
// type, and optionally label names; labeled families (CounterVec,
// GaugeVec, HistogramVec) hand out one instrument per distinct label-value
// tuple. Resolving a labeled instrument takes a lock — do it once at
// setup, hold the *Counter, and the hot path never touches the registry:
//
//	reg := obsv.NewRegistry()
//	reqs := reg.CounterVec("http_requests_total", "Requests served.", "route")
//	blockReqs := reqs.With("block") // resolve once
//	...
//	blockReqs.Inc() // hot path: one atomic add
//
// CounterFunc and GaugeFunc register read-at-scrape metrics computed from
// an existing source of truth (a cache's internal counters, a queue
// length), so subsystems with their own atomics can be exposed without
// double counting.
//
// Registration is idempotent: re-registering an identical family returns
// the existing one, and a name collision with a different type or label
// set panics (it is a programming error, caught at startup).
//
// # Exposition
//
// WritePrometheus emits the text exposition format (0.0.4): counters and
// gauges as single samples, histograms as cumulative le-bucketed series
// with _sum and _count, all bounds in seconds. ParsePrometheus reads the
// text form back — the round-trip is tested, and cmd/loadgen uses the
// parser to read counters and latency histograms off a live daemon and
// difference them across a run.
package obsv

import (
	"fmt"
	"sort"
	"sync"
)

// A MetricType classifies a family for exposition.
type MetricType string

// The three exposition types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// family is one named metric family: fixed name/help/type/label names,
// plus either a set of per-label-tuple instruments or a read function.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string

	mu     sync.RWMutex
	series map[string]*series // key: label values joined with 0xff
	order  []string           // series keys in creation order

	fn func() float64 // CounterFunc/GaugeFunc; nil otherwise
}

// series is one instrument inside a family (exactly one of the pointers
// is set, matching the family type).
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry owns metric families and exposes them; construct with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use.
// Re-registering with the same type and label names is idempotent; any
// mismatch panics — it is a startup-time programming error, and failing
// loudly beats silently splitting a metric in two.
func (r *Registry) register(name, help string, typ MetricType, labels []string, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obsv: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || (f.fn == nil) != (fn == nil) {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
		fn:     fn,
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey joins label values with a byte that validName-legal values
// cannot contain.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return string(b)
}

// with resolves (creating on first use) the series for the given label
// values. The fill callback populates the instrument pointer.
func (f *family) with(values []string, fill func(*series)) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	fill(s)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter registers (or returns) the unlabeled counter family name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.with(nil, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge registers (or returns) the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return f.with(nil, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// Histogram registers (or returns) the unlabeled histogram family name.
// Observations are durations; exposition is in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, nil)
	return f.with(nil, func(s *series) { s.hist = &Histogram{} }).hist
}

// CounterVec is a counter family with labels; resolve instruments with
// With.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once at setup; the returned counter is lock-free.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func(s *series) { s.counter = &Counter{} }).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, TypeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labels, nil)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func(s *series) { s.hist = &Histogram{} }).hist
}

// CounterFunc registers a counter whose value is computed by fn at scrape
// time — for exposing a subsystem's existing monotonic counter without
// double accounting. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, nil, fn)
}

// GaugeFunc registers a gauge computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, nil, fn)
}

// FamilyInfo describes one registered family (for documentation checks
// and introspection).
type FamilyInfo struct {
	Name   string     `json:"name"`
	Help   string     `json:"help"`
	Type   MetricType `json:"type"`
	Labels []string   `json:"labels,omitempty"`
}

// Families lists every registered family, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{Name: f.name, Help: f.help, Type: f.typ, Labels: append([]string(nil), f.labels...)})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedFamilies returns the families sorted by name (for deterministic
// exposition).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
