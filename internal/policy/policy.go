// Package policy compiles access-pattern profiles (internal/traceprof)
// into pluggable prefetch policies for the serving stack.
//
// A Prefetcher answers one question: after a demand miss on block i, which
// blocks should be decompressed speculatively? Three answers ship:
//
//   - sequential: the refill-locality heuristic the server always had —
//     warm i+1..i+depth. Needs no training; right for straight-line code.
//   - markov: warm the top-k most likely successors of i from a trained
//     first-order transition table, falling back to sequential when i was
//     never seen. Follows loops, calls and branches the way the SAMC
//     compressor's Markov model follows bit streams — the same sequential
//     structure, one level up.
//   - hotset: pin the hottest blocks of the profile into a protected cache
//     region (via the Pinner interface) so cold scans cannot evict them,
//     and prefetch sequentially around the pins.
//
// Policies are immutable once built; Predict is safe for concurrent use.
package policy

import (
	"fmt"

	"codecomp/internal/traceprof"
)

// Prefetcher picks the blocks to warm after a demand miss.
type Prefetcher interface {
	// Name identifies the policy ("sequential", "markov", "hotset").
	Name() string
	// Predict returns the block indices to decompress speculatively after
	// a demand miss on block. Indices may repeat or fall out of range;
	// callers filter. The returned slice must not be mutated.
	Predict(block int) []int
}

// Pinner is implemented by policies that want blocks protected from
// eviction. The serving layer pins these once at policy-selection time.
type Pinner interface {
	// Pinned returns the blocks to hold in the cache's protected region,
	// most valuable first (callers may truncate to fit their capacity).
	Pinned() []int
}

// Config parameterizes New.
type Config struct {
	// Blocks is the image's block count (required).
	Blocks int
	// Depth is the sequential prefetch depth, and the markov fallback
	// depth (default 4).
	Depth int
	// TopK is how many Markov successors to warm per miss (default 2).
	TopK int
	// PinCount is how many hot blocks the hotset policy pins (default
	// Blocks/8, at least 1).
	PinCount int
	// Profile is the trained access profile; required for markov and
	// hotset.
	Profile *traceprof.Profile
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.PinCount <= 0 {
		c.PinCount = c.Blocks / 8
		if c.PinCount < 1 {
			c.PinCount = 1
		}
	}
	return c
}

// New builds the named policy. markov and hotset require cfg.Profile.
func New(name string, cfg Config) (Prefetcher, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("policy: block count must be positive")
	}
	cfg = cfg.withDefaults()
	switch name {
	case "sequential":
		return NewSequential(cfg.Depth, cfg.Blocks), nil
	case "markov":
		if cfg.Profile == nil {
			return nil, fmt.Errorf("policy: markov needs a trained profile")
		}
		return NewMarkov(cfg.Profile, cfg.TopK, cfg.Depth), nil
	case "hotset":
		if cfg.Profile == nil {
			return nil, fmt.Errorf("policy: hotset needs a trained profile")
		}
		return NewHotset(cfg.Profile, cfg.PinCount, NewSequential(cfg.Depth, cfg.Blocks)), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (want sequential, markov or hotset)", name)
}

// Sequential warms the next depth blocks after a miss.
type Sequential struct {
	depth  int
	blocks int
}

// NewSequential returns the fixed-depth sequential policy over an image of
// the given block count.
func NewSequential(depth, blocks int) *Sequential {
	if depth < 0 {
		depth = 0
	}
	return &Sequential{depth: depth, blocks: blocks}
}

// Name implements Prefetcher.
func (s *Sequential) Name() string { return "sequential" }

// Predict implements Prefetcher.
func (s *Sequential) Predict(block int) []int {
	if block < 0 || block >= s.blocks {
		return nil
	}
	out := make([]int, 0, s.depth)
	for b := block + 1; b <= block+s.depth && b < s.blocks; b++ {
		out = append(out, b)
	}
	return out
}

// Markov warms each miss's most likely successors from a trained
// transition table.
type Markov struct {
	succ     [][]int
	fallback *Sequential
}

// NewMarkov compiles the profile's transition table into a policy that,
// after a miss on block b, warms b's topK most likely successors and then
// extends the prediction along the most-likely-successor chain until depth
// blocks are predicted — the trained analogue of a depth-long sequential
// run that also follows loops and jumps. Blocks the trace never visited
// fall back to plain sequential depth (fallbackDepth <= 0 disables the
// fallback).
func NewMarkov(p *traceprof.Profile, topK, depth int) *Markov {
	m := &Markov{succ: make([][]int, p.Blocks)}
	for b := range m.succ {
		succ := p.Successors(b, topK)
		if len(succ) == 0 {
			continue
		}
		pred := make([]int, len(succ))
		copy(pred, succ)
		seen := map[int]bool{b: true}
		for _, s := range pred {
			seen[s] = true
		}
		// Walk the top-1 chain from the most likely successor.
		for cur := succ[0]; len(pred) < depth; {
			next := p.Successors(cur, 1)
			if len(next) == 0 || seen[next[0]] {
				break
			}
			pred = append(pred, next[0])
			seen[next[0]] = true
			cur = next[0]
		}
		m.succ[b] = pred
	}
	if depth > 0 {
		m.fallback = NewSequential(depth, p.Blocks)
	}
	return m
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "markov" }

// Predict implements Prefetcher.
func (m *Markov) Predict(block int) []int {
	if block >= 0 && block < len(m.succ) && len(m.succ[block]) > 0 {
		return m.succ[block]
	}
	if m.fallback != nil {
		return m.fallback.Predict(block)
	}
	return nil
}

// Hotset pins the profile's hottest blocks and delegates per-miss
// prediction to an inner policy.
type Hotset struct {
	pins  []int
	inner Prefetcher
}

// NewHotset pins the pinCount hottest blocks of the profile. inner handles
// Predict (nil disables per-miss prefetching).
func NewHotset(p *traceprof.Profile, pinCount int, inner Prefetcher) *Hotset {
	return &Hotset{pins: p.HotSet(pinCount), inner: inner}
}

// Name implements Prefetcher.
func (h *Hotset) Name() string { return "hotset" }

// Pinned implements Pinner: the hottest blocks, hottest first.
func (h *Hotset) Pinned() []int { return h.pins }

// Predict implements Prefetcher.
func (h *Hotset) Predict(block int) []int {
	if h.inner == nil {
		return nil
	}
	return h.inner.Predict(block)
}
