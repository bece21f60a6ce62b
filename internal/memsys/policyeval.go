package memsys

import (
	"container/list"
	"fmt"

	"codecomp/internal/blockcache"
	"codecomp/internal/policy"
)

// This file is the offline policy-evaluation mode: where Simulate replays
// an instruction-fetch trace against the paper's I-cache + refill engine,
// EvaluatePolicy replays a block-access trace against a model of the
// serving stack's decompressed-block cache (internal/blockcache) under a
// chosen prefetch policy and the stack's admission rule for bulk reads.
// The same trace scored against sequential and markov answers
// "which policy should this image serve with?" without standing up a
// server, and a trace of range reads scores the bulk rule.

// Access is one read of a replayed trace: blocks [First, Last] of the
// image. A demand read (Bulk false) reads one block, so Last == First;
// a bulk read is one range, /bytes or /text read.
type Access struct {
	First, Last int
	Bulk        bool
}

// DemandTrace turns a block trace into demand reads, one per block.
func DemandTrace(blocks []int) []Access {
	out := make([]Access, len(blocks))
	for i, b := range blocks {
		out[i] = Access{First: b, Last: b}
	}
	return out
}

// bulkAdmission is the rule a block decoded by a bulk read passes to
// enter a full cache. Admit reports whether a block with the given stamp
// may displace another; Skip turns one away and returns its new stamp.
// Stamps start at 0. *blockcache.Admission is the serving stack's rule;
// the tests score reference rules against it.
type bulkAdmission interface {
	Admit(stamp uint32) bool
	Skip() uint32
}

// PolicyConfig describes the modeled block cache.
type PolicyConfig struct {
	// CacheBlocks is the cache capacity in blocks.
	CacheBlocks int
}

// PolicyStats scores one policy over one trace.
type PolicyStats struct {
	// Requests counts demand block accesses replayed.
	Requests uint64 `json:"requests"`
	// DemandHits and DemandMisses split Requests by cache outcome.
	DemandHits   uint64 `json:"demand_hits"`
	DemandMisses uint64 `json:"demand_misses"`
	// PrefetchIssued counts speculative block loads the policy triggered.
	PrefetchIssued uint64 `json:"prefetch_issued"`
	// PrefetchUsed counts prefetched blocks later served to a demand
	// access before eviction — the prefetches that paid off.
	PrefetchUsed uint64 `json:"prefetch_used"`
	// PrefetchWasted counts prefetched blocks evicted unused (or never
	// used by the end of the trace) — pure wasted decompression work.
	PrefetchWasted uint64 `json:"prefetch_wasted"`
	// BulkBlocks counts the blocks bulk reads asked for, and BulkCached
	// those served from the cache.
	BulkBlocks uint64 `json:"bulk_blocks"`
	BulkCached uint64 `json:"bulk_cached"`
	// Decompressions counts every block decompression, demand, bulk or
	// speculative.
	Decompressions uint64 `json:"decompressions"`
	// Evictions counts blocks dropped for capacity.
	Evictions uint64 `json:"evictions"`
}

// HitRatio is the demand hit ratio — the headline score.
func (s PolicyStats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(s.Requests)
}

// Accuracy is the fraction of issued prefetches that were used.
func (s PolicyStats) Accuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(s.PrefetchIssued)
}

// evalEntry is one cached block in the model.
type evalEntry struct {
	block      int
	el         *list.Element
	prefetched bool
}

// EvaluatePolicy replays a trace of reads through a fully-associative
// LRU cache of cfg.CacheBlocks blocks under prefetch policy pf (nil
// disables prefetching), mirroring the serving stack's semantics:
//   - a demand hit refreshes the block's recency; a demand miss decodes
//     the block, inserts it (evicting the least recently used block if
//     the cache is full) and then speculatively loads pf.Predict(block);
//   - a bulk read serves its cached blocks without refreshing their
//     recency, decodes the rest, and then offers each decoded block in
//     order: it goes in without eviction if the cache has room, with
//     eviction if the serving stack's admission rule
//     (blockcache.Admission over cfg.CacheBlocks) admits it, and is
//     otherwise turned away.
//
// Reads outside [0, numBlocks) are errors.
func EvaluatePolicy(accesses []Access, numBlocks int, pf policy.Prefetcher, cfg PolicyConfig) (PolicyStats, error) {
	return evaluate(accesses, numBlocks, pf, cfg, blockcache.NewAdmission(cfg.CacheBlocks))
}

// evaluate is EvaluatePolicy under bulk admission rule bulk, fresh for
// the replay.
func evaluate(accesses []Access, numBlocks int, pf policy.Prefetcher, cfg PolicyConfig, bulk bulkAdmission) (PolicyStats, error) {
	if numBlocks <= 0 {
		return PolicyStats{}, fmt.Errorf("memsys: numBlocks must be positive")
	}
	if cfg.CacheBlocks <= 0 {
		return PolicyStats{}, fmt.Errorf("memsys: CacheBlocks must be positive")
	}

	var st PolicyStats
	entries := make(map[int]*evalEntry, cfg.CacheBlocks)
	lru := list.New()                   // of *evalEntry; front = most recently used
	stamps := make([]uint32, numBlocks) // per block, the bulk rule's stamp
	var decoded []int                   // a bulk read's missing blocks

	insert := func(b int, prefetched bool) {
		e := &evalEntry{block: b, prefetched: prefetched}
		e.el = lru.PushFront(e)
		entries[b] = e
		for lru.Len() > cfg.CacheBlocks {
			back := lru.Back()
			v := back.Value.(*evalEntry)
			lru.Remove(back)
			delete(entries, v.block)
			st.Evictions++
			if v.prefetched {
				st.PrefetchWasted++
			}
		}
	}

	for _, a := range accesses {
		if a.First < 0 || a.Last >= numBlocks || a.First > a.Last || (!a.Bulk && a.Last != a.First) {
			return st, fmt.Errorf("memsys: invalid read [%d,%d] of blocks [0,%d)", a.First, a.Last, numBlocks)
		}
		if a.Bulk {
			decoded = decoded[:0]
			for b := a.First; b <= a.Last; b++ {
				st.BulkBlocks++
				if _, ok := entries[b]; ok {
					st.BulkCached++
				} else {
					decoded = append(decoded, b)
				}
			}
			st.Decompressions += uint64(len(decoded))
			for _, b := range decoded {
				switch {
				case bulk.Admit(stamps[b]), lru.Len() < cfg.CacheBlocks:
					insert(b, false)
				default:
					stamps[b] = bulk.Skip()
				}
			}
			continue
		}
		b := a.First
		st.Requests++
		if e, ok := entries[b]; ok {
			st.DemandHits++
			lru.MoveToFront(e.el)
			if e.prefetched {
				e.prefetched = false
				st.PrefetchUsed++
			}
			continue
		}
		st.DemandMisses++
		st.Decompressions++
		insert(b, false)
		if pf == nil {
			continue
		}
		for _, p := range pf.Predict(b) {
			if p < 0 || p >= numBlocks {
				continue
			}
			if _, ok := entries[p]; ok {
				continue
			}
			st.PrefetchIssued++
			st.Decompressions++
			insert(p, true)
		}
	}
	// Prefetched blocks still unused at the end were wasted too.
	for _, e := range entries {
		if e.prefetched {
			st.PrefetchWasted++
		}
	}
	return st, nil
}
