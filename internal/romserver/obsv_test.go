package romserver

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
)

// metric reads one sample off s's registry through a Prometheus scrape,
// the way a /metrics client sees it: the family name, then label
// name/value pairs for a labeled series. A series the scrape lacks fails
// the test instead of reading as zero.
func metric(t testing.TB, s *Server, name string, labels ...string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := obsv.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if len(labels) > 0 {
		want = make(map[string]string)
		for i := 0; i+1 < len(labels); i += 2 {
			want[labels[i]] = labels[i+1]
		}
	}
	v, ok := p.Value(name, want)
	if !ok {
		t.Fatalf("%s %v missing from the registry", name, labels)
	}
	return int64(v)
}

// healthOf returns the named image's row of s.Health.
func healthOf(t testing.TB, s *Server, name string) HealthInfo {
	t.Helper()
	_, infos := s.Health()
	for _, h := range infos {
		if h.Image == name {
			return h
		}
	}
	t.Fatalf("image %q missing from Health", name)
	return HealthInfo{}
}

// TestMetricsPhaseHistograms drives demand reads through the server and
// asserts the per-phase latency histograms (queue wait, decode, verify,
// whole load) all observed work with non-zero tails, and that the
// scraped counters agree with the instruments behind them.
func TestMetricsPhaseHistograms(t *testing.T) {
	_, text := testText(t)
	reg := obsv.NewRegistry()
	s := New(Options{Registry: reg, Workers: 2, CacheBlocks: 16})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < info.Blocks; i++ {
		if _, _, err := s.BlockContext(context.Background(), "prog", i); err != nil {
			t.Fatal(err)
		}
	}
	// The demand misses leave sequential prefetches on the pool, and a
	// prefetch that finds its block cached counts a cache hit: drain the
	// pool, or the scrape and the cache counters below see different
	// counts. A worker issues a miss's prefetches after replying to it,
	// so waiting for completed == issued could pass before the last ones
	// are sent.
	s.Close()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := obsv.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"romserver_queue_wait_seconds",
		"romserver_decode_seconds",
		"romserver_verify_seconds",
		"romserver_block_load_seconds",
	} {
		h, ok := p.Histogram(name, nil)
		if !ok {
			t.Fatalf("%s missing from scrape", name)
		}
		if h.Count == 0 {
			t.Errorf("%s observed nothing", name)
		}
		if name != "romserver_queue_wait_seconds" && h.QuantileDuration(0.99) <= 0 {
			t.Errorf("%s p99 = %v, want > 0", name, h.QuantileDuration(0.99))
		}
	}

	decs, _ := p.Value("romserver_decompressions_total", nil)
	if decs == 0 || int64(decs) != s.met.decompressions.Value() {
		t.Errorf("romserver_decompressions_total = %v, counter %d, want equal and nonzero", decs, s.met.decompressions.Value())
	}
	if hits, _ := p.Value("blockcache_hits_total", nil); int64(hits) != s.cache.Stats().Hits {
		t.Errorf("blockcache_hits_total %v != cache hits %d", hits, s.cache.Stats().Hits)
	}
	if imgs, _ := p.Value("romserver_images", nil); imgs != 1 {
		t.Errorf("romserver_images = %v, want 1", imgs)
	}
}

// TestStatsRaceHammer reads health and scrapes the registry concurrently
// with demand loads — run under -race, this is the regression test for
// the plain-int counter migration.
func TestStatsRaceHammer(t *testing.T) {
	_, text := testText(t)
	reg := obsv.NewRegistry()
	s := New(Options{Registry: reg, Workers: 4, CacheBlocks: 8})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.BlockContext(context.Background(), "prog", (i*7+g)%info.Blocks); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ready, _ := s.Health(); !ready {
					t.Error("not ready under clean load")
					return
				}
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestTracerCapturesLoadPhases asserts sampled block loads land in the
// trace ring with queue_wait/decode/verify phases.
func TestTracerCapturesLoadPhases(t *testing.T) {
	_, text := testText(t)
	tr := obsv.NewTracer(32, 1)
	s := New(Options{Tracer: tr, Workers: 2})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < info.Blocks && i < 8; i++ {
		if _, _, err := s.BlockContext(context.Background(), "prog", i); err != nil {
			t.Fatal(err)
		}
	}
	recs := tr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no traces recorded")
	}
	var sawPhases bool
	for _, r := range recs {
		if r.Name != "block_load" {
			t.Errorf("trace name = %q", r.Name)
		}
		phases := map[string]bool{}
		for _, ph := range r.Phases {
			phases[ph.Name] = true
		}
		if phases["queue_wait"] && phases["decode"] && phases["verify"] {
			sawPhases = true
		}
	}
	if !sawPhases {
		t.Fatalf("no trace carries all three load phases: %+v", recs)
	}
}

// TestFaultHookMirrorsCounters installs a fault injector through
// SetFaults and asserts injected faults appear in the faultinj_* registry
// counters.
func TestFaultHookMirrorsCounters(t *testing.T) {
	_, text := testText(t)
	reg := obsv.NewRegistry()
	s := New(Options{Registry: reg, Workers: 2, LoadAttempts: 4})
	defer s.Close()
	info, err := s.AddImage("prog", marshalSAMC(t, text))
	if err != nil {
		t.Fatal(err)
	}
	var userHookCalls int64
	var mu sync.Mutex
	if err := s.SetFaults("prog", &faultinj.Options{
		Seed:          1,
		TransientRate: 1, // every load fails transiently, then retries exhaust
		Hook: func(faultinj.Kind) {
			mu.Lock()
			userHookCalls++
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.BlockContext(context.Background(), "prog", 0); err == nil {
		t.Fatal("expected load failure under 100% transient rate")
	}
	_ = info

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := obsv.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	transients, _ := p.Value("faultinj_transient_errors_total", nil)
	if transients == 0 {
		t.Fatal("faultinj_transient_errors_total not mirrored")
	}
	mu.Lock()
	calls := userHookCalls
	mu.Unlock()
	if int64(transients) != calls {
		t.Fatalf("registry saw %v faults, user hook saw %d (chaining broken)", transients, calls)
	}
	if retries, _ := p.Value("romserver_retries_total", nil); retries == 0 {
		t.Error("romserver_retries_total is zero after transient failures")
	}
	if fails, _ := p.Value("romserver_load_failures_total", nil); fails == 0 {
		t.Error("romserver_load_failures_total is zero after exhausted attempts")
	}
}
