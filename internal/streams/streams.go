// Package streams implements SAMC's stream-subdivision machinery (§3).
//
// A fixed-width instruction is split into k streams — groups of bit
// positions that need not be adjacent. The paper chooses the grouping by
// computing the correlation factor between every pair of bit positions,
// seeding groups with strongly correlated bits, and then randomly exchanging
// bits between streams, keeping an exchange whenever it lowers the average
// entropy of the per-stream Markov models. This package provides the
// division data type, bit extract/assemble, the correlation matrix, and the
// greedy + hill-climbing optimizer.
package streams

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"codecomp/internal/markov"
)

// Division is a partition of instruction bit positions into ordered streams.
// Bit position 0 is the most significant bit of the instruction word, so
// position i holds the value word >> (Width-1-i) & 1.
type Division struct {
	Width  int     // instruction width in bits
	Groups [][]int // bit positions per stream, in coding order
}

// Contiguous divides width bits into n equal adjacent groups — the
// strawman division the optimizer starts from (and the paper's baseline
// "4 streams of 8 adjacent bits" for MIPS).
func Contiguous(width, n int) Division {
	if n < 1 || width%n != 0 {
		panic(fmt.Sprintf("streams: cannot divide %d bits into %d equal groups", width, n))
	}
	per := width / n
	d := Division{Width: width, Groups: make([][]int, n)}
	for g := 0; g < n; g++ {
		for b := 0; b < per; b++ {
			d.Groups[g] = append(d.Groups[g], g*per+b)
		}
	}
	return d
}

// Validate checks that the groups form an exact partition of [0, Width).
func (d Division) Validate() error {
	seen := make([]bool, d.Width)
	count := 0
	for gi, g := range d.Groups {
		if len(g) == 0 {
			return fmt.Errorf("streams: group %d is empty", gi)
		}
		for _, pos := range g {
			if pos < 0 || pos >= d.Width {
				return fmt.Errorf("streams: bit position %d outside [0,%d)", pos, d.Width)
			}
			if seen[pos] {
				return fmt.Errorf("streams: bit position %d appears twice", pos)
			}
			seen[pos] = true
			count++
		}
	}
	if count != d.Width {
		return fmt.Errorf("streams: groups cover %d of %d bits", count, d.Width)
	}
	return nil
}

// Widths returns the per-stream bit counts, the markov.Spec widths.
func (d Division) Widths() []int {
	ws := make([]int, len(d.Groups))
	for i, g := range d.Groups {
		ws[i] = len(g)
	}
	return ws
}

// Extract appends the instruction's bits in stream order to buf and returns
// it. The result has exactly Width entries of 0/1.
func (d Division) Extract(word uint64, buf []int) []int {
	for _, g := range d.Groups {
		for _, pos := range g {
			buf = append(buf, int(word>>uint(d.Width-1-pos)&1))
		}
	}
	return buf
}

// Assemble rebuilds the instruction word from bits in stream order — the
// software equivalent of the paper's "instruction generator" unit, which
// routes decompressed stream bits back to their architectural positions.
func (d Division) Assemble(bits []int) uint64 {
	var word uint64
	i := 0
	for _, g := range d.Groups {
		for _, pos := range g {
			word |= uint64(bits[i]&1) << uint(d.Width-1-pos)
			i++
		}
	}
	return word
}

// Shifts flattens the division into one shift per coding-order bit: bit j of
// the stream-ordered walk lands at word bit Shifts()[j] (i.e. word |=
// bit << shift). It is the table-driven form of Assemble for decode hot
// loops that build the word directly instead of staging bits in a slice.
func (d Division) Shifts() []uint8 {
	shifts := make([]uint8, 0, d.Width)
	for _, g := range d.Groups {
		for _, pos := range g {
			shifts = append(shifts, uint8(d.Width-1-pos))
		}
	}
	return shifts
}

// Gather is the inverse of the Shifts scatter: it returns word's bits in
// coding order, the first-coded bit most significant, where shifts is the
// division's Shifts(). It is the table-driven form of Extract for hot
// loops that walk the streams a word at a time (markov.Trainer.AddWord).
func Gather(word uint64, shifts []uint8) uint64 {
	var coded uint64
	for _, s := range shifts {
		coded = coded<<1 | word>>s&1
	}
	return coded
}

// Clone deep-copies the division so the optimizer can mutate candidates.
func (d Division) Clone() Division {
	c := Division{Width: d.Width, Groups: make([][]int, len(d.Groups))}
	for i, g := range d.Groups {
		c.Groups[i] = append([]int(nil), g...)
	}
	return c
}

// Correlation computes the |Pearson correlation| between every pair of bit
// positions over the given instruction words (the paper's ρ_ij).
func Correlation(words []uint64, width int) [][]float64 {
	n := float64(len(words))
	ones := make([]float64, width)
	both := make([][]float64, width)
	for i := range both {
		both[i] = make([]float64, width)
	}
	for _, w := range words {
		for i := 0; i < width; i++ {
			bi := float64(w >> uint(width-1-i) & 1)
			if bi == 0 {
				continue
			}
			ones[i]++
			for j := i + 1; j < width; j++ {
				if w>>uint(width-1-j)&1 == 1 {
					both[i][j]++
				}
			}
		}
	}
	corr := make([][]float64, width)
	for i := range corr {
		corr[i] = make([]float64, width)
		corr[i][i] = 1
	}
	if n == 0 {
		return corr
	}
	for i := 0; i < width; i++ {
		pi := ones[i] / n
		vi := pi * (1 - pi)
		for j := i + 1; j < width; j++ {
			pj := ones[j] / n
			vj := pj * (1 - pj)
			if vi == 0 || vj == 0 {
				continue
			}
			pij := both[i][j] / n
			c := math.Abs((pij - pi*pj) / math.Sqrt(vi*vj))
			corr[i][j], corr[j][i] = c, c
		}
	}
	return corr
}

// Options configures the optimizer.
type Options struct {
	Seed       int64 // RNG seed for the exchange search (deterministic)
	Iterations int   // random exchanges to attempt; 0 means a default of 200
	BlockWords int   // instructions per cache block for model resets; 0 = 8
	Connected  bool  // evaluate with connected Markov trees
	MaxSample  int   // cap on words used for evaluation; 0 = 4096
}

func (o *Options) fill() {
	if o.Iterations == 0 {
		o.Iterations = 200
	}
	if o.BlockWords == 0 {
		o.BlockWords = 8
	}
	if o.MaxSample == 0 {
		o.MaxSample = 4096
	}
}

// Entropy evaluates a division: it trains per-stream Markov trees on the
// words and returns the model's total ideal code length in bits. Lower is
// better; this is the objective of the paper's exchange search.
func Entropy(d Division, words []uint64, blockWords int, connected bool) float64 {
	tr, err := markov.NewTrainer(markov.Spec{Widths: d.Widths(), Connected: connected})
	if err != nil {
		panic(err) // division widths already validated by callers
	}
	shifts := d.Shifts()
	for i, w := range words {
		if i%blockWords == 0 {
			tr.ResetBlock()
		}
		tr.AddWord(Gather(w, shifts))
	}
	return tr.EntropyBits()
}

// GreedyByCorrelation builds an initial division by seeding each group with
// the most "connected" unassigned bit and growing it with the bits most
// correlated to the group's members — the paper's "combine bits with high
// correlation to streams" step. Groups are equal-sized (width/n).
func GreedyByCorrelation(words []uint64, width, n int) Division {
	if width%n != 0 {
		panic(fmt.Sprintf("streams: %d bits / %d groups not integral", width, n))
	}
	per := width / n
	corr := Correlation(words, width)
	assigned := make([]bool, width)
	d := Division{Width: width, Groups: make([][]int, n)}
	for g := 0; g < n; g++ {
		// Seed: unassigned bit with the highest total correlation mass.
		seed, best := -1, -1.0
		for i := 0; i < width; i++ {
			if assigned[i] {
				continue
			}
			sum := 0.0
			for j := 0; j < width; j++ {
				if i != j && !assigned[j] {
					sum += corr[i][j]
				}
			}
			if sum > best {
				best, seed = sum, i
			}
		}
		group := []int{seed}
		assigned[seed] = true
		for len(group) < per {
			next, score := -1, -1.0
			for i := 0; i < width; i++ {
				if assigned[i] {
					continue
				}
				sum := 0.0
				for _, m := range group {
					sum += corr[i][m]
				}
				if sum > score {
					score, next = sum, i
				}
			}
			group = append(group, next)
			assigned[next] = true
		}
		sort.Ints(group)
		d.Groups[g] = group
	}
	return d
}

// Result reports what the optimizer found.
type Result struct {
	Division       Division
	InitialEntropy float64 // bits, greedy starting point
	FinalEntropy   float64 // bits, after hill climbing
	Accepted       int     // exchanges that improved entropy
}

// Optimize runs the paper's stream-assignment search: greedy correlation
// grouping, then random bit exchanges between streams, keeping each exchange
// that lowers the trained models' entropy.
func Optimize(words []uint64, width, n int, opts Options) Result {
	opts.fill()
	sample := words
	if len(sample) > opts.MaxSample {
		stride := len(words) / opts.MaxSample
		sample = make([]uint64, 0, opts.MaxSample)
		for i := 0; i < len(words) && len(sample) < opts.MaxSample; i += stride {
			sample = append(sample, words[i])
		}
	}
	// Start from the better of the greedy correlation grouping and the
	// plain contiguous split — the paper observes contiguous 4×8 is already
	// near optimal, so it is a strong seed the exchange search must beat.
	cur := GreedyByCorrelation(sample, width, n)
	curH := Entropy(cur, sample, opts.BlockWords, opts.Connected)
	if width%n == 0 {
		cont := Contiguous(width, n)
		if h := Entropy(cont, sample, opts.BlockWords, opts.Connected); h < curH {
			cur, curH = cont, h
		}
	}
	res := Result{InitialEntropy: curH}
	rng := rand.New(rand.NewSource(opts.Seed))
	for it := 0; it < opts.Iterations; it++ {
		g1 := rng.Intn(n)
		g2 := rng.Intn(n)
		if g1 == g2 {
			continue
		}
		cand := cur.Clone()
		i1 := rng.Intn(len(cand.Groups[g1]))
		i2 := rng.Intn(len(cand.Groups[g2]))
		cand.Groups[g1][i1], cand.Groups[g2][i2] = cand.Groups[g2][i2], cand.Groups[g1][i1]
		h := Entropy(cand, sample, opts.BlockWords, opts.Connected)
		if h < curH {
			cur, curH = cand, h
			res.Accepted++
		}
	}
	// The search ran on a sample; pick the final winner on the full data so
	// a sample-overfitted exchange cannot beat the contiguous baseline.
	// (FinalEntropy stays sample-normalized, comparable to InitialEntropy.)
	if len(sample) < len(words) && width%n == 0 {
		cont := Contiguous(width, n)
		if Entropy(cont, words, opts.BlockWords, opts.Connected) <
			Entropy(cur, words, opts.BlockWords, opts.Connected) {
			cur = cont
			curH = Entropy(cont, sample, opts.BlockWords, opts.Connected)
		}
	}
	for _, g := range cur.Groups {
		sort.Ints(g)
	}
	res.Division = cur
	res.FinalEntropy = curH
	return res
}
