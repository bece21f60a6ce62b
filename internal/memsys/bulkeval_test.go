package memsys_test

import (
	"math/rand"
	"testing"

	"codecomp/internal/blockcache"
	"codecomp/internal/memsys"
	"codecomp/internal/policy"
	"codecomp/internal/synth"
	"codecomp/internal/traceprof"
)

// Replays of page-cold-shaped traces: bulk reads of 4 KiB windows over
// four programs, 2.8 times the cache, in a seeded cyclic page order, by
// two clients. Each list is scored under plain LRU (every decoded block
// inserted), the epoch rule that preceded the exact horizon, and the
// serving stack's rule.

const (
	pageBytes      = 4096
	pageCacheSize  = 8192 // the daemon's default -cache-blocks
	pageWarmPages  = 70   // the warm-up: the cycle's last 70 pages, one client
	pageCycles     = 6    // timed cycles of the page order
	pageBlockBytes = 32
)

// pageCycle is one cycle of 4 KiB windows over the go, perl, vortex and
// gcc texts laid end to end in one block space: every window starts at
// one seed-drawn offset within its page, so each covers 129 32-byte
// blocks (128 when the offset is block-aligned), and the windows come
// in a seeded order.
func pageCycle(t *testing.T, seed int64) (pages []memsys.Access, blocks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(pageBytes)
	for _, name := range []string{"go", "perl", "vortex", "gcc"} {
		prof, ok := synth.ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		n := len(synth.GenerateMIPS(prof).Text())
		for off := first; off+pageBytes <= n; off += pageBytes {
			pages = append(pages, memsys.Access{
				First: blocks + off/pageBlockBytes,
				Last:  blocks + (off+pageBytes-1)/pageBlockBytes,
				Bulk:  true,
			})
		}
		blocks += (n + pageBlockBytes - 1) / pageBlockBytes
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	return pages, blocks
}

// twoClients is the timed trace: client 0 reads the cycle's even
// requests and client 1 its odd ones, client 1 running ahead by the
// given number of its own requests, the two interleaved one for one.
func twoClients(pages []memsys.Access, ahead, cycles int) []memsys.Access {
	n := cycles * len(pages) / 2
	out := make([]memsys.Access, 0, 2*n)
	for j := range n {
		out = append(out, pages[(2*j)%len(pages)], pages[(2*(j+ahead)+1)%len(pages)])
	}
	return out
}

// lruRule admits every decoded block: a plain LRU.
type lruRule struct{}

func (lruRule) Admit(uint32) bool { return true }
func (lruRule) Skip() uint32      { return 0 }

// epochRule is the rule the exact horizon replaced, kept as a reference:
// a stamp is 1 + the epoch of its skip, an epoch ends after capacity
// skips, and a block is admitted in its stamp's epoch or the next. The
// daemon computed the epoch once per read and counted that read's skips
// after it; here the count moves per skip, which shifts an epoch
// boundary by at most one read.
type epochRule struct{ skips, capacity uint32 }

func (r *epochRule) epoch() uint32 { return r.skips/r.capacity + 1 }

func (r *epochRule) Admit(stamp uint32) bool { return stamp != 0 && stamp+1 >= r.epoch() }

func (r *epochRule) Skip() uint32 {
	e := r.epoch()
	r.skips++
	return e
}

// timedScore replays warm-up then timed reads and returns the timed
// part's cached share and evictions: the replay is deterministic, so the
// warm-up alone is the prefix to subtract.
func timedScore(t *testing.T, warm, timed []memsys.Access, blocks int, rule func() memsys.BulkAdmission) (share float64, evictions uint64) {
	t.Helper()
	eval := func(reads []memsys.Access) memsys.PolicyStats {
		st, err := memsys.EvaluateUnder(reads, blocks, nil, memsys.PolicyConfig{CacheBlocks: pageCacheSize}, rule())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	w := eval(warm)
	all := eval(append(append([]memsys.Access(nil), warm...), timed...))
	return float64(all.BulkCached-w.BulkCached) / float64(all.BulkBlocks-w.BulkBlocks), all.Evictions - w.Evictions
}

// TestEvaluateBulkPageCold scores the three rules on seed 1's page-cold
// lists with the clients in lockstep, 40 and 80 requests apart. In
// lockstep every page comes back only after the whole cycle, 2.8
// capacities later: the exact rule keeps the blocks of the first fill
// and serves them on every cycle without evictions, where the epoch
// rule still admits blocks re-read one to two capacities later and the
// LRU serves nothing. Clients apart re-read pages soon after each other;
// an LRU hits those, and both reuse rules decode them twice, since a
// first decode into a full cache only stamps the block. Those lists
// are checked for sanity only.
func TestEvaluateBulkPageCold(t *testing.T) {
	pages, blocks := pageCycle(t, 1)
	warm := pages[len(pages)-pageWarmPages:]
	rules := []struct {
		name string
		rule func() memsys.BulkAdmission
	}{
		{"lru", func() memsys.BulkAdmission { return lruRule{} }},
		{"epoch", func() memsys.BulkAdmission { return &epochRule{capacity: pageCacheSize} }},
		{"exact", func() memsys.BulkAdmission { return blockcache.NewAdmission(pageCacheSize) }},
	}
	t.Logf("%d blocks, %d pages per cycle, cache %d blocks", blocks, len(pages), pageCacheSize)
	for _, ahead := range []int{0, 40, 80} {
		timed := twoClients(pages, ahead, pageCycles)
		share := map[string]float64{}
		evicted := map[string]uint64{}
		for _, r := range rules {
			share[r.name], evicted[r.name] = timedScore(t, warm, timed, blocks, r.rule)
			t.Logf("ahead %2d: %-5s cached share %.3f, evictions %d", ahead, r.name, share[r.name], evicted[r.name])
			if s := share[r.name]; s < 0 || s > 1 {
				t.Fatalf("ahead %d, %s: cached share %v", ahead, r.name, s)
			}
		}
		if ahead != 0 {
			continue
		}
		if s := share["exact"]; s < 0.30 {
			t.Errorf("lockstep: exact rule cached share %.3f, want at least 0.30", s)
		}
		if e, ep := evicted["exact"], evicted["epoch"]; e*10 >= ep {
			t.Errorf("lockstep: exact rule evicted %d blocks after the first fill, epoch rule %d: want under a tenth", e, ep)
		}
	}
}

// TestEvaluateBulkScansBesideLoop checks that the bulk admission rule
// keeps cold scans from flushing a demand loop's hot blocks. The looping
// gcc trace runs at a cache of a third of its working set under
// sequential depth 4 prefetch, and after every 50 demand reads one bulk
// read decodes the next 128 blocks of a cold region past the image,
// never read again. Under the serving stack's rule the loop's demand hit
// ratio stays within 0.001 of the scan-free loop's; a plain LRU, which
// inserts every scanned block, loses at least 0.01.
func TestEvaluateBulkScansBesideLoop(t *testing.T) {
	const every, scan = 50, 128
	_, looped, blocks := gccLoop(t)
	cache := traceprof.BuildProfile(looped, blocks).UniqueBlocks() / 3
	seq := policy.NewSequential(4, blocks)
	cfg := memsys.PolicyConfig{CacheBlocks: cache}

	reads := make([]memsys.Access, 0, len(looped)+len(looped)/every)
	cold := blocks
	for i, b := range looped {
		reads = append(reads, memsys.Access{First: b, Last: b})
		if (i+1)%every == 0 {
			reads = append(reads, memsys.Access{First: cold, Last: cold + scan - 1, Bulk: true})
			cold += scan
		}
	}

	base, err := memsys.EvaluatePolicy(memsys.DemandTrace(looped), blocks, seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit := func(rule memsys.BulkAdmission) float64 {
		st, err := memsys.EvaluateUnder(reads, cold, seq, cfg, rule)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != base.Requests || st.BulkBlocks != uint64(cold-blocks) {
			t.Fatalf("replayed %d demand reads and %d bulk blocks, want %d and %d", st.Requests, st.BulkBlocks, base.Requests, cold-blocks)
		}
		return st.HitRatio()
	}
	exact := hit(blockcache.NewAdmission(cache))
	lru := hit(lruRule{})
	t.Logf("cache %d blocks, %d scans: demand hit scan-free %.4f, exact rule %.4f, lru %.4f",
		cache, (cold-blocks)/scan, base.HitRatio(), exact, lru)
	if d := exact - base.HitRatio(); d < -0.001 || d > 0.001 {
		t.Errorf("exact rule: demand hit %.4f beside scans, %.4f without: want within 0.001", exact, base.HitRatio())
	}
	if lru > base.HitRatio()-0.01 {
		t.Errorf("lru: demand hit %.4f beside scans, %.4f without: want at least 0.01 lower", lru, base.HitRatio())
	}
}
