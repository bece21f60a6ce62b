package streams

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestContiguous(t *testing.T) {
	d := Contiguous(32, 4)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.Widths(); len(got) != 4 || got[0] != 8 {
		t.Fatalf("Widths = %v", got)
	}
	if d.Groups[1][0] != 8 || d.Groups[3][7] != 31 {
		t.Fatalf("Groups = %v", d.Groups)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Contiguous(32,5) should panic")
		}
	}()
	Contiguous(32, 5)
}

func TestValidateRejects(t *testing.T) {
	cases := []Division{
		{Width: 4, Groups: [][]int{{0, 1}, {2}}},        // missing bit 3
		{Width: 4, Groups: [][]int{{0, 1}, {1, 2, 3}}},  // duplicate
		{Width: 4, Groups: [][]int{{0, 1, 2, 3}, {}}},   // empty group
		{Width: 4, Groups: [][]int{{0, 1, 2}, {3, 4}}},  // out of range
		{Width: 4, Groups: [][]int{{0, 1, 2}, {-1, 3}}}, // negative
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, d)
		}
	}
}

func TestExtractAssembleInverse(t *testing.T) {
	d := Division{Width: 8, Groups: [][]int{{7, 0, 3}, {1, 2}, {4, 5, 6}}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 256; w++ {
		bits := d.Extract(w, nil)
		if len(bits) != 8 {
			t.Fatalf("Extract returned %d bits", len(bits))
		}
		if got := d.Assemble(bits); got != w {
			t.Fatalf("Assemble(Extract(%#x)) = %#x", w, got)
		}
	}
}

func TestExtractOrder(t *testing.T) {
	// Position 0 is the MSB: extracting bit 0 of 0b10 (width 2) gives 1.
	d := Division{Width: 2, Groups: [][]int{{0}, {1}}}
	bits := d.Extract(0b10, nil)
	if bits[0] != 1 || bits[1] != 0 {
		t.Fatalf("bits = %v, want [1 0]", bits)
	}
}

func TestCorrelation(t *testing.T) {
	// Bits 0 and 1 identical, bit 2 independent, bit 3 constant.
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 8192)
	for i := range words {
		a := uint64(rng.Intn(2))
		c := uint64(rng.Intn(2))
		words[i] = a<<3 | a<<2 | c<<1 // bit3(constant MSB? width 4): positions…
	}
	corr := Correlation(words, 4)
	// position 0 (MSB) = a, position 1 = a, position 2 = c, position 3 = 0.
	if corr[0][1] < 0.99 {
		t.Fatalf("identical bits corr = %v, want ~1", corr[0][1])
	}
	if corr[0][2] > 0.05 {
		t.Fatalf("independent bits corr = %v, want ~0", corr[0][2])
	}
	if corr[0][3] != 0 {
		t.Fatalf("constant bit corr = %v, want 0", corr[0][3])
	}
	if corr[2][2] != 1 {
		t.Fatal("diagonal must be 1")
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if corr[i][j] != corr[j][i] {
				t.Fatal("matrix not symmetric")
			}
		}
	}
}

func TestGreedyGroupsCorrelatedBits(t *testing.T) {
	// Width 4 into 2 groups; positions {0,2} always equal, {1,3} always
	// equal, the two pairs independent. Greedy must pair them.
	rng := rand.New(rand.NewSource(5))
	words := make([]uint64, 4096)
	for i := range words {
		a, b := uint64(rng.Intn(2)), uint64(rng.Intn(2))
		words[i] = a<<3 | b<<2 | a<<1 | b
	}
	d := GreedyByCorrelation(words, 4, 2)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	inSame := func(x, y int) bool {
		for _, g := range d.Groups {
			hasX, hasY := false, false
			for _, p := range g {
				hasX = hasX || p == x
				hasY = hasY || p == y
			}
			if hasX && hasY {
				return true
			}
		}
		return false
	}
	if !inSame(0, 2) || !inSame(1, 3) {
		t.Fatalf("greedy grouping split correlated pairs: %v", d.Groups)
	}
}

func TestEntropyDetectsStructure(t *testing.T) {
	// Words where adjacent bit pairs are redundant: a division grouping the
	// pairs together must score lower entropy than one splitting them.
	rng := rand.New(rand.NewSource(3))
	words := make([]uint64, 4096)
	for i := range words {
		a, b := uint64(rng.Intn(2)), uint64(rng.Intn(2))
		words[i] = a<<3 | a<<2 | b<<1 | b
	}
	good := Division{Width: 4, Groups: [][]int{{0, 1}, {2, 3}}}
	bad := Division{Width: 4, Groups: [][]int{{0, 2}, {1, 3}}}
	hg := Entropy(good, words, 8, false)
	hb := Entropy(bad, words, 8, false)
	// good sees the second bit of each group as fully determined: ~2 bits
	// per word; bad sees 4 independent-looking bits: ~4 bits per word.
	if hg > hb-0.5*float64(len(words)) {
		t.Fatalf("entropy: grouped %v, split %v — structure not detected", hg, hb)
	}
}

// referenceEntropy is Entropy's per-bit form: each word's bits in stream
// order from Extract, counted one at a time at tree node (depth, path) as
// markov.Walker steps, and summed in Trainer.EntropyBits's order so the
// float64 it returns is exact, not merely close.
func referenceEntropy(d Division, words []uint64, blockWords int, connected bool) float64 {
	widths := d.Widths()
	nCtx := 1
	if connected {
		nCtx = 2
	}
	counts := make([][][][2]uint64, len(widths))
	for s, k := range widths {
		counts[s] = make([][][2]uint64, nCtx)
		for c := range counts[s] {
			counts[s][c] = make([][2]uint64, 1<<k-1)
		}
	}
	var stream, depth, path, prev int
	for i, w := range words {
		if i%blockWords == 0 {
			prev = 0
		}
		for _, b := range d.Extract(w, nil) {
			ctx := 0
			if connected {
				ctx = prev
			}
			counts[stream][ctx][1<<depth-1+path][b]++
			if depth++; depth == widths[stream] {
				prev, stream, depth, path = b, (stream+1)%len(widths), 0, 0
			} else {
				path = path<<1 | b
			}
		}
	}
	var total float64
	for _, ctxs := range counts {
		for _, nodes := range ctxs {
			for _, c := range nodes {
				n := c[0] + c[1]
				for b := 0; b < 2 && n > 0; b++ {
					if c[b] > 0 {
						total -= float64(c[b]) * math.Log2(float64(c[b])/float64(n))
					}
				}
			}
		}
	}
	return total
}

// randomDivision cuts a shuffled [0, width) into 1-4 unequal streams of
// at most 16 bits each.
func randomDivision(rng *rand.Rand, width int) Division {
	for {
		perm := rng.Perm(width)
		n := 1 + rng.Intn(4)
		cuts := append(rng.Perm(width - 1)[:n-1], width-1)
		sort.Ints(cuts)
		d := Division{Width: width, Groups: make([][]int, n)}
		lo, ok := 0, true
		for g, c := range cuts {
			d.Groups[g] = perm[lo : c+1]
			ok = ok && len(d.Groups[g]) <= 16
			lo = c + 1
		}
		if ok && d.Validate() == nil {
			return d
		}
	}
}

// TestEntropyMatchesPerBitWalk pins Entropy, which trains a word at a
// time, to the per-bit walk bit for bit, on random words and divisions.
func TestEntropyMatchesPerBitWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		width := []int{8, 16, 32}[rng.Intn(3)]
		d := randomDivision(rng, width)
		words := make([]uint64, 1+rng.Intn(700))
		for i := range words {
			// Skewed bits, so the trees see uneven counts.
			words[i] = rng.Uint64() & rng.Uint64() & (1<<width - 1)
		}
		blockWords, connected := 1+rng.Intn(16), rng.Intn(2) == 1
		got := Entropy(d, words, blockWords, connected)
		want := referenceEntropy(d, words, blockWords, connected)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("division %v, %d words, %d per block, connected %v: Entropy %v, per-bit walk %v",
				d.Groups, len(words), blockWords, connected, got, want)
		}
	}
}

func TestOptimizeImprovesOrMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	words := make([]uint64, 2048)
	for i := range words {
		// Structured words: opcode-ish top bits from a small set, low bits
		// correlated in pairs.
		op := uint64([]int{0, 0, 0, 5, 9, 12}[rng.Intn(6)])
		a, b := uint64(rng.Intn(2)), uint64(rng.Intn(2))
		words[i] = op<<4 | a<<3 | a<<2 | b<<1 | b
	}
	res := Optimize(words, 8, 2, Options{Seed: 1, Iterations: 150})
	if err := res.Division.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.FinalEntropy > res.InitialEntropy {
		t.Fatalf("hill climbing worsened entropy: %v -> %v", res.InitialEntropy, res.FinalEntropy)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := make([]uint64, 512)
	for i := range words {
		words[i] = uint64(rng.Intn(1 << 16))
	}
	a := Optimize(words, 16, 2, Options{Seed: 7, Iterations: 50})
	b := Optimize(words, 16, 2, Options{Seed: 7, Iterations: 50})
	if a.FinalEntropy != b.FinalEntropy || a.Accepted != b.Accepted {
		t.Fatal("Optimize is not deterministic for a fixed seed")
	}
	for g := range a.Division.Groups {
		for i := range a.Division.Groups[g] {
			if a.Division.Groups[g][i] != b.Division.Groups[g][i] {
				t.Fatal("divisions differ across identical runs")
			}
		}
	}
}

// Property: Extract/Assemble are inverse for any valid random division,
// and Gather packs exactly Extract's bits.
func TestQuickExtractAssemble(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 4 + rng.Intn(29) // 4..32
		n := 1 + rng.Intn(4)
		// Random partition: shuffle positions, cut into n non-empty groups.
		perm := rng.Perm(width)
		if n > width {
			n = width
		}
		d := Division{Width: width, Groups: make([][]int, n)}
		for i, p := range perm {
			g := i % n
			d.Groups[g] = append(d.Groups[g], p)
		}
		if d.Validate() != nil {
			return false
		}
		shifts := d.Shifts()
		for k := 0; k < 50; k++ {
			w := rng.Uint64() & (1<<uint(width) - 1)
			bits := d.Extract(w, nil)
			if d.Assemble(bits) != w {
				return false
			}
			var packed uint64
			for _, b := range bits {
				packed = packed<<1 | uint64(b)
			}
			if Gather(w, shifts) != packed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: correlation values are always within [0,1].
func TestQuickCorrelationRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := make([]uint64, 100+rng.Intn(400))
		for i := range words {
			words[i] = rng.Uint64()
		}
		corr := Correlation(words, 16)
		for i := range corr {
			for j := range corr[i] {
				c := corr[i][j]
				if math.IsNaN(c) || c < 0 || c > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = rng.Uint64() & 0xFFFFFFFF
	}
	d := Contiguous(32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Entropy(d, words, 8, false)
	}
}
