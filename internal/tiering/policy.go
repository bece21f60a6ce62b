package tiering

import (
	"fmt"
	"sort"

	"codecomp/internal/traceprof"
)

// Policy maps a traceprof heat profile to a per-block tier assignment. The
// knobs are access-share targets, not block counts: the hot tier takes the
// smallest set of blocks covering HotFraction of all recorded accesses (the
// classic skew means a few percent of blocks cover most fetches), the warm
// tier the next WarmFraction, and everything else — including blocks the
// trace never touched — stays in the densest tier. MaxHotFraction caps the
// hot tier by block count so a flat profile cannot promote the whole image
// to its most expensive tier.
type Policy struct {
	// HotFraction is the share of total accesses the fastest tier should
	// cover (0 → 0.6).
	HotFraction float64 `json:"hot_fraction"`
	// WarmFraction is the additional access share for the second tier
	// (0 → 0.25). Ignored with fewer than three tiers.
	WarmFraction float64 `json:"warm_fraction"`
	// MaxHotFraction caps the fastest tier at this fraction of all blocks
	// (0 → 0.25).
	MaxHotFraction float64 `json:"max_hot_fraction"`
}

// withDefaults fills zero fields with the default policy.
func (p Policy) withDefaults() Policy {
	if p.HotFraction == 0 {
		p.HotFraction = 0.6
	}
	if p.WarmFraction == 0 {
		p.WarmFraction = 0.25
	}
	if p.MaxHotFraction == 0 {
		p.MaxHotFraction = 0.25
	}
	return p
}

// Validate rejects fractions outside (0,1] or an access budget over 100%.
func (p Policy) Validate() error {
	p = p.withDefaults()
	if p.HotFraction <= 0 || p.HotFraction > 1 {
		return fmt.Errorf("tiering: hot fraction %v outside (0,1]", p.HotFraction)
	}
	if p.WarmFraction < 0 || p.WarmFraction > 1 {
		return fmt.Errorf("tiering: warm fraction %v outside [0,1]", p.WarmFraction)
	}
	if p.HotFraction+p.WarmFraction > 1 {
		return fmt.Errorf("tiering: hot+warm fractions %v exceed 1", p.HotFraction+p.WarmFraction)
	}
	if p.MaxHotFraction <= 0 || p.MaxHotFraction > 1 {
		return fmt.Errorf("tiering: max hot fraction %v outside (0,1]", p.MaxHotFraction)
	}
	return nil
}

// Assign computes the desired tier index for every block of a profile over
// numTiers tiers (fastest first, as in Spec.Tiers). Blocks are ranked by
// heat; the ranking walks hottest-first assigning tier 0 until HotFraction
// of accesses (or MaxHotFraction of blocks) is covered, then tier 1 until
// HotFraction+WarmFraction is covered (three or more tiers only; with four
// tiers the extra middle tier is left to explicit retuning), and leaves the
// rest in the densest tier. A nil or empty profile parks every block in
// the densest tier.
func (p Policy) Assign(prof *traceprof.Profile, numTiers int) []uint8 {
	p = p.withDefaults()
	if prof == nil {
		return nil
	}
	out := make([]uint8, prof.Blocks)
	dense := uint8(numTiers - 1)
	for i := range out {
		out[i] = dense
	}
	if numTiers < 2 {
		return out
	}
	var total float64
	for _, h := range prof.Heat {
		total += float64(h)
	}
	if total == 0 {
		return out
	}
	order := make([]int, len(prof.Heat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return prof.Heat[order[a]] > prof.Heat[order[b]] })
	maxHot := int(p.MaxHotFraction * float64(prof.Blocks))
	if maxHot < 1 {
		maxHot = 1
	}
	hotTarget := p.HotFraction * total
	warmTarget := (p.HotFraction + p.WarmFraction) * total
	cum, hotBlocks := 0.0, 0
	for _, b := range order {
		if prof.Heat[b] == 0 {
			break
		}
		switch {
		case cum < hotTarget && hotBlocks < maxHot:
			out[b] = 0
			hotBlocks++
		case numTiers > 2 && cum < warmTarget:
			out[b] = 1
		default:
			return out
		}
		cum += float64(prof.Heat[b])
	}
	return out
}

// CostModel gives each tier format's decode cost in nanoseconds per output
// byte — the currency the offline evaluator scores latency in.
type CostModel map[string]float64

// DefaultCostModel is a fixed snapshot, not a live measurement: the
// AppendBlock throughputs BENCH_decode.json recorded when tiering was
// added (commit 3cdb975), converted to ns/byte (1000 / MB/s): raw is a
// memcpy, kozuch byte-Huffman 91 MB/s, interleaved rANS 71.5 MB/s, SAMC
// 17.5 MB/s. BENCH_decode.json has been re-measured since and no longer
// carries these figures. The values stay as they are so the offline
// Pareto table (the tiering drill's, and EXPERIMENTS.md's) remains
// reproducible. Only the ratios between tiers order the layouts, so
// TestDefaultCostModelMatchesBaseline (cmd/bench) holds Huffman's and
// rANS's cost relative to SAMC's within 25% of what the committed
// BENCH_decode.json AppendBlock MB/s imply (-16.6% and -0.7% against the
// file as committed). Use measured per-machine numbers where available;
// these are the portable fallback.
var DefaultCostModel = CostModel{
	TierRaw:     0.05,
	TierHuffman: 11.0,
	TierRANS:    14.0,
	TierSAMC:    57.0,
}

// DecodeCosts returns the estimated decode cost in nanoseconds for each
// block under its current tier assignment: block length × the tier
// format's per-byte cost. Formats missing from m cost zero.
func (c *Compressed) DecodeCosts(m CostModel) []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]float64, len(c.assign))
	for i, a := range c.assign {
		out[i] = float64(c.blockOrigLen(i)) * m[c.tiers[a].format]
	}
	return out
}
