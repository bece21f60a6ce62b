// Package policy compiles access-pattern profiles (internal/traceprof)
// into pluggable prefetch policies for the serving stack.
//
// A Prefetcher answers one question: after a demand miss on block i, which
// blocks should be decompressed speculatively? Two answers ship:
//
//   - sequential: the refill-locality heuristic the server always had —
//     warm i+1..i+depth. Needs no training; right for straight-line code.
//   - markov: warm the top-k most likely successors of i from a trained
//     first-order transition table, falling back to sequential when i was
//     never seen. Follows loops, calls and branches the way the SAMC
//     compressor's Markov model follows bit streams — the same sequential
//     structure, one level up.
//
// Policies are immutable once built; Predict is safe for concurrent use.
package policy

import (
	"fmt"

	"codecomp/internal/traceprof"
)

// Prefetcher picks the blocks to warm after a demand miss.
type Prefetcher interface {
	// Name identifies the policy ("sequential", "markov").
	Name() string
	// Predict returns the block indices to decompress speculatively after
	// a demand miss on block. Indices may repeat or fall out of range;
	// callers filter. The returned slice must not be mutated.
	Predict(block int) []int
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
	// Profile is the trained access profile; required for markov.
	Profile *traceprof.Profile
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	return c
}

// New builds the named policy. markov requires cfg.Profile.
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
	}
	return nil, fmt.Errorf("policy: unknown policy %q (want sequential or markov)", name)
}

// Sequential warms the next depth blocks after a miss.
type Sequential struct {
	depth  int
	blocks int
}

// NewSequential returns the fixed-depth sequential policy over an image of
// the given block count. The depth is clamped to [0, blocks]: no miss can
// warm more blocks than the image has, so an oversized depth never sizes
// a prediction beyond it.
func NewSequential(depth, blocks int) *Sequential {
	return &Sequential{depth: max(min(depth, blocks), 0), blocks: blocks}
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
