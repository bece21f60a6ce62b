// The plain replay, the policy A/B and the offline policy evaluation.

package drill

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"codecomp/internal/blockcache"
	"codecomp/internal/cluster/client"
	"codecomp/internal/memsys"
	"codecomp/internal/obsv"
	"codecomp/internal/policy"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// runResult is one replay's client-side counters plus the server-side
// /metrics deltas it produced.
type runResult struct {
	ok, fail, bytesRead, clientHits  int64
	elapsed                          time.Duration
	cache                            blockcache.Stats
	pfIssued, pfCompleted, pfDropped int64
	pfHits, pfWasted                 int64
	decompressions                   int64
	latency                          []latencyRow
}

// latencyRow is one histogram's delta over the run.
type latencyRow struct {
	label string
	hist  obsv.ParsedHistogram
}

// latencySeries are the histograms the summary table reports: the HTTP
// block route end-to-end, then the server-side phases inside it.
var latencySeries = []struct {
	label, family string
	labels        map[string]string
}{
	{"http block route", famHTTPRequest, map[string]string{"route": "block"}},
	{"queue wait", famQueueWait, nil},
	{"decode", famDecode, nil},
	{"verify", famVerify, nil},
	{"block load", famBlockLoad, nil},
}

// replayFamilies are the counters a replay's summary differences.
var replayFamilies = []string{
	famCacheHits, famCacheMisses, famCacheDeduped, famCacheEvictions,
	famPrefetchIssued, famPrefetchCompleted, famPrefetchDropped, famPrefetchHits, famPrefetchWasted,
	famDecompressions,
}

// latencyDeltas differences the tracked histograms between two scrapes.
// A series missing from either scrape is skipped, not an error — an older
// daemon without some family still gets the rest of the table.
func latencyDeltas(before, after obsv.Parsed) []latencyRow {
	var rows []latencyRow
	for _, s := range latencySeries {
		b, okB := before.Histogram(s.family, s.labels)
		a, okA := after.Histogram(s.family, s.labels)
		if !okA {
			continue
		}
		d := a
		if okB {
			d = a.Sub(b)
		}
		if d.Count > 0 {
			rows = append(rows, latencyRow{s.label, d})
		}
	}
	return rows
}

// runOnce replays the workload loops times through the verifying engine,
// bracketed by /metrics scrapes. A corrupt body counts as a failed
// request.
func runOnce(cc *client.Client, w *Workload, loops, workers int) (runResult, error) {
	var res runResult
	promBefore, err := cc.Metrics()
	if err != nil {
		return res, err
	}
	before, err := counters(promBefore, replayFamilies...)
	if err != nil {
		return res, err
	}

	var hits atomic.Int64
	r := w.blockReplay(cc, "replay", loops, workers)
	r.read = func(win window) ([]byte, error) {
		data, hit, err := cc.Block(w.Name, r.prog.first(win))
		if hit {
			hits.Add(1)
		}
		return data, err
	}
	rr := r.run()
	res.elapsed = rr.elapsed

	promAfter, err := cc.Metrics()
	if err != nil {
		return res, err
	}
	after, err := counters(promAfter, replayFamilies...)
	if err != nil {
		return res, err
	}
	d := func(name string) int64 { return after[name] - before[name] }
	res.latency = latencyDeltas(promBefore, promAfter)
	res.ok, res.fail = rr.ok, rr.failed+rr.corrupt
	res.bytesRead, res.clientHits = rr.bytes, hits.Load()
	res.cache = blockcache.Stats{
		Hits:      d(famCacheHits),
		Misses:    d(famCacheMisses),
		Deduped:   d(famCacheDeduped),
		Evictions: d(famCacheEvictions),
	}
	res.pfIssued, res.pfCompleted, res.pfDropped = d(famPrefetchIssued), d(famPrefetchCompleted), d(famPrefetchDropped)
	res.pfHits, res.pfWasted = d(famPrefetchHits), d(famPrefetchWasted)
	res.decompressions = d(famDecompressions)
	return res, nil
}

func (r runResult) print() {
	fmt.Printf("loadgen: %d requests (%d failed) in %v\n", r.ok+r.fail, r.fail, r.elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput       %.0f req/s, %.2f MiB/s decompressed\n",
		float64(r.ok)/r.elapsed.Seconds(), float64(r.bytesRead)/(1<<20)/r.elapsed.Seconds())
	fmt.Printf("  client X-Cache   %.2f%% hit\n", pct(r.clientHits, r.ok))
	fmt.Printf("  server cache     %d hits, %d misses, %d deduped, %d evictions -> %.2f%% hit ratio\n",
		r.cache.Hits, r.cache.Misses, r.cache.Deduped, r.cache.Evictions, 100*r.cache.HitRatio())
	fmt.Printf("  server prefetch  %d issued, %d completed, %d dropped; %d hit (%.2f%% accuracy), %d wasted\n",
		r.pfIssued, r.pfCompleted, r.pfDropped, r.pfHits, pct(r.pfHits, r.pfCompleted), r.pfWasted)
	fmt.Printf("  server decode    %d decompressions for %d block reads (%.2f reads/decompression)\n",
		r.decompressions, r.ok+r.fail, float64(r.ok+r.fail)/float64(max(r.decompressions, 1)))
	if len(r.latency) > 0 {
		fmt.Printf("  latency          %-16s %9s %10s %10s %10s %10s\n",
			"", "count", "p50", "p90", "p99", "mean")
		for _, row := range r.latency {
			h := row.hist
			fmt.Printf("  latency          %-16s %9.0f %10v %10v %10v %10v\n",
				row.label, h.Count,
				rnd(h.QuantileDuration(0.50)), rnd(h.QuantileDuration(0.90)),
				rnd(h.QuantileDuration(0.99)), rnd(time.Duration(h.Mean()*float64(time.Second))))
		}
	}
}

// p99 returns the labeled row's p99, or 0 when that series did not appear.
func (r runResult) p99(label string) time.Duration {
	for _, row := range r.latency {
		if row.label == label {
			return row.hist.QuantileDuration(0.99)
		}
	}
	return 0
}

// Replay uploads the workload and replays it against whatever policy the
// server already has, verifying every block. It reports one violation
// if any request failed or was corrupt.
func Replay(cfg Config, cc *client.Client, w *Workload) (int, error) {
	if err := upload(cc, w.Name, w.Image); err != nil {
		return 0, err
	}
	res, err := runOnce(cc, w, cfg.Loops, cfg.Concurrency)
	if err != nil {
		return 0, err
	}
	res.print()
	return boolViolation(res.fail > 0), nil
}

// AB replays the same trace twice against a cold cache: the baseline arm
// under sequential prefetch, the trained arm under cfg.Policy. The image
// is deleted and re-uploaded between arms so both start cold.
func AB(cfg Config, cc *client.Client, w *Workload) (int, error) {
	arm := func(p string) (runResult, error) {
		cc.Delete(w.Name) //nolint:errcheck — may not exist yet
		if err := upload(cc, w.Name, w.Image); err != nil {
			return runResult{}, err
		}
		if p != "sequential" {
			if err := cc.Train(w.Name, w.trace()); err != nil {
				return runResult{}, err
			}
		}
		info, err := cc.SetPolicy(w.Name, romserver.PolicySpec{
			Policy: p, TopK: cfg.TopK, Depth: cfg.PrefetchDepth,
		})
		if err != nil {
			return runResult{}, err
		}
		js, _ := json.MarshalIndent(info, "", "  ")
		fmt.Printf("loadgen: policy -> %s\n", js)
		return runOnce(cc, w, cfg.Loops, cfg.Concurrency)
	}

	fmt.Printf("\nloadgen: arm A (sequential baseline)\n")
	a, err := arm("sequential")
	if err != nil {
		return 0, err
	}
	a.print()
	fmt.Printf("\nloadgen: arm B (%s, trained on this trace)\n", cfg.Policy)
	b, err := arm(cfg.Policy)
	if err != nil {
		return 0, err
	}
	b.print()

	fmt.Printf("\nloadgen: A/B sequential -> %s: hit %.2f%% -> %.2f%%, prefetch accuracy %.2f%% -> %.2f%%, wasted %d -> %d\n",
		cfg.Policy, pct(a.clientHits, a.ok), pct(b.clientHits, b.ok),
		pct(a.pfHits, a.pfCompleted), pct(b.pfHits, b.pfCompleted),
		a.pfWasted, b.pfWasted)
	if ap, bp := a.p99("http block route"), b.p99("http block route"); ap > 0 && bp > 0 {
		fmt.Printf("loadgen: A/B block-route p99: %v -> %v\n", rnd(ap), rnd(bp))
	}
	return boolViolation(a.fail+b.fail > 0), nil
}

// boolViolation counts a failed run as one violation.
func boolViolation(failed bool) int {
	if failed {
		return 1
	}
	return 0
}

// Offline scores the trace against both policies through the
// memsys block-cache model — no server involved. The profile is trained
// on one loop of the trace and evaluated on the looped replay, so it
// answers the same question as the A/B mode, in microseconds.
func Offline(cfg Config, w *Workload) error {
	reqs, blocks := w.Reqs, w.Blocks
	prof := traceprof.BuildProfile(reqs, blocks)
	ws := prof.UniqueBlocks()
	cache, depth := cfg.SimCache, cfg.PrefetchDepth
	if cache <= 0 {
		cache = max(ws/3, 1)
	}
	if depth <= 0 {
		depth = 4
	}
	looped := make([]int, 0, cfg.Loops*len(reqs))
	for l := 0; l < cfg.Loops; l++ {
		looped = append(looped, reqs...)
	}

	seq := policy.NewSequential(depth, blocks)
	markov, err := policy.New("markov", policy.Config{Blocks: blocks, Depth: depth, TopK: cfg.TopK, Profile: prof})
	if err != nil {
		return err
	}

	fmt.Printf("\nloadgen: offline evaluation: working set %d blocks, cache %d blocks, %d requests x %d loops\n",
		ws, cache, len(reqs), cfg.Loops)
	for _, pf := range []policy.Prefetcher{seq, markov} {
		st, err := memsys.EvaluatePolicy(memsys.DemandTrace(looped), blocks, pf, memsys.PolicyConfig{CacheBlocks: cache})
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s hit %.4f  prefetch accuracy %.4f  wasted %d  decompressions %d  evictions %d\n",
			pf.Name(), st.HitRatio(), st.Accuracy(), st.PrefetchWasted, st.Decompressions, st.Evictions)
	}
	return nil
}
