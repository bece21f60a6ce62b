package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"codecomp/internal/obsv"
)

// quantiles summarizes a latency sample by nearest rank, keeping the
// sample count beside the percentiles it supports.
type quantiles struct {
	N   int
	P50 time.Duration
	P90 time.Duration
}

// summarize sorts a copy of xs and reads p50 and p90 by nearest rank.
func summarize(xs []time.Duration) quantiles {
	q := quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	q.P50, q.P90 = rank(0.50), rank(0.90)
	return q
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scrape reads the daemon's Prometheus exposition.
func scrape(hc *http.Client, base string) (obsv.Parsed, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return obsv.ParsePrometheus(resp.Body)
}

// window is the difference between two scrapes of one daemon. Every
// accessor errors when a series went backwards: counters and histogram
// counts only fall when the daemon restarted between the scrapes, and a
// window spanning a restart measures nothing.
type window struct {
	before, after obsv.Parsed
}

// counter returns the named counter's increase over the window; a series
// absent from both scrapes counts as zero.
func (w window) counter(name string, labels map[string]string) (float64, error) {
	b, okB := w.before.Value(name, labels)
	a, okA := w.after.Value(name, labels)
	if okB && !okA {
		return 0, fmt.Errorf("%s vanished between scrapes (daemon restarted?)", name)
	}
	if a < b {
		return 0, fmt.Errorf("%s reset from %g to %g between scrapes (daemon restarted?)", name, b, a)
	}
	return a - b, nil
}

// histogram returns the named histogram's observations over the window.
func (w window) histogram(name string, labels map[string]string) (obsv.ParsedHistogram, error) {
	b, _ := w.before.Histogram(name, labels)
	a, ok := w.after.Histogram(name, labels)
	if !ok {
		return obsv.ParsedHistogram{}, fmt.Errorf("%s missing from scrape", name)
	}
	if a.Count < b.Count || a.Sum < b.Sum {
		return obsv.ParsedHistogram{}, fmt.Errorf("%s reset between scrapes (daemon restarted?)", name)
	}
	return a.Sub(b), nil
}

// counters reads several counters at once, stopping at the first error.
func (w window) counters(names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		v, err := w.counter(n, nil)
		if err != nil {
			return nil, err
		}
		out[n] = v
	}
	return out, nil
}

// diagnostics are the cache-state counters a run record keeps beside its
// metrics, so two batches that disagree can be told apart: drift in what
// the cache held, or a slower machine.
type diagnostics struct {
	hitRatio    float64 // demand hits / demand reads (block reads)
	rangeCached float64 // range-path blocks served from cache / blocks read
	decodesPer  float64 // codec decodes per request
	rejects     float64 // admission rejects plus brownout sheds
	evictions   float64
	deduped     float64
}

func (d diagnostics) String() string {
	return fmt.Sprintf("hit_ratio=%.4f range_cached_share=%.4f decodes_per_req=%.3f rejects=%g evictions=%g deduped=%g",
		d.hitRatio, d.rangeCached, d.decodesPer, d.rejects, d.evictions, d.deduped)
}

// diagnose reads the run's diagnostics from the window's counters.
func diagnose(w window, requests int) (diagnostics, error) {
	c, err := w.counters("blockcache_hits_total", "blockcache_misses_total", "blockcache_evictions_total",
		"blockcache_deduped_total", "romserver_decompressions_total", "romserver_range_cached_blocks_total",
		"romserver_range_decoded_blocks_total", "overload_brownout_shed_total")
	if err != nil {
		return diagnostics{}, err
	}
	d := diagnostics{rejects: c["overload_brownout_shed_total"],
		evictions: c["blockcache_evictions_total"], deduped: c["blockcache_deduped_total"]}
	for _, reason := range []string{"deadline", "queue_full"} {
		v, err := w.counter("overload_admission_rejects_total", map[string]string{"reason": reason})
		if err != nil {
			return diagnostics{}, err
		}
		d.rejects += v
	}
	d.hitRatio = ratio(c["blockcache_hits_total"], c["blockcache_hits_total"]+c["blockcache_misses_total"])
	d.rangeCached = ratio(c["romserver_range_cached_blocks_total"],
		c["romserver_range_cached_blocks_total"]+c["romserver_range_decoded_blocks_total"])
	d.decodesPer = ratio(c["romserver_decompressions_total"], float64(requests))
	return d, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
