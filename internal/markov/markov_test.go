package markov

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"codecomp/internal/arith"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Widths: []int{8, 8, 8, 8}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.InstructionBits() != 32 {
		t.Fatalf("InstructionBits = %d", good.InstructionBits())
	}
	for _, bad := range []Spec{
		{},
		{Widths: []int{0}},
		{Widths: []int{8, 17}},
		{Widths: []int{-1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v should not validate", bad)
		}
	}
}

func TestNumProbabilities(t *testing.T) {
	// Paper: a k-bit stream needs (2^{k+1}-2)/2 = 2^k - 1 probabilities.
	tr, err := NewTrainer(Spec{Widths: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Finalize(false)
	want := (1<<2 - 1) + (1<<3 - 1) // 3 + 7
	if got := m.NumProbabilities(); got != want {
		t.Fatalf("NumProbabilities = %d, want %d", got, want)
	}
	// Connected mode doubles the contexts.
	tr2, _ := NewTrainer(Spec{Widths: []int{2, 3}, Connected: true})
	if got := tr2.Finalize(false).NumProbabilities(); got != 2*want {
		t.Fatalf("connected NumProbabilities = %d, want %d", got, 2*want)
	}
}

// feed runs words through a trainer with per-block resets.
func feed(tr *Trainer, words []uint32, wordsPerBlock int) {
	for i, w := range words {
		if i%wordsPerBlock == 0 {
			tr.ResetBlock()
		}
		tr.AddWord(uint64(w))
	}
}

// bitTrainer is the per-bit reference for Trainer.AddWord: it counts one
// bit at a time at the node Walker would read, (depth, path), and its
// ResetBlock may fall mid-word.
type bitTrainer struct {
	*Trainer
	w walkState
}

func newBitTrainer(spec Spec) (*bitTrainer, error) {
	tr, err := NewTrainer(spec)
	return &bitTrainer{Trainer: tr}, err
}

func (b *bitTrainer) ResetBlock() { b.w.reset() }

func (b *bitTrainer) Add(bit int) {
	b.counts[b.w.stream][b.w.ctx(b.spec)][2*nodeIndex(b.w.depth, b.w.path)+2+bit&1]++
	advance(&b.w, b.spec, bit)
}

// TestAddWordMatchesPerBit: training a word at a time leaves exactly the
// counts, entropy and model of the per-bit walk, over random specs, words
// and block lengths.
func TestAddWordMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		widths := make([]int, 1+rng.Intn(4))
		total := 0
		for i := range widths {
			widths[i] = 1 + rng.Intn(16)
			if total+widths[i] > 64 {
				widths[i] = 64 - total
			}
			total += widths[i]
			if total == 64 {
				widths = widths[:i+1]
				break
			}
		}
		spec := Spec{Widths: widths, Connected: rng.Intn(2) == 1}
		word, _ := NewTrainer(spec)
		bit, _ := newBitTrainer(spec)
		perBlock := 1 + rng.Intn(12)
		for i := 0; i < 1+rng.Intn(400); i++ {
			if i%perBlock == 0 {
				word.ResetBlock()
				bit.ResetBlock()
			}
			w := rng.Uint64() & rng.Uint64() >> uint(64-total)
			word.AddWord(w)
			for b := total - 1; b >= 0; b-- {
				bit.Add(int(w >> uint(b) & 1))
			}
		}
		if !reflect.DeepEqual(word.counts, bit.counts) {
			t.Fatalf("spec %+v: AddWord counts differ from the per-bit walk", spec)
		}
		if math.Float64bits(word.EntropyBits()) != math.Float64bits(bit.EntropyBits()) {
			t.Fatalf("spec %+v: entropy differs", spec)
		}
		q := rng.Intn(2) == 1
		if !bytes.Equal(word.Finalize(q).Serialize(), bit.Finalize(q).Serialize()) {
			t.Fatalf("spec %+v quantize %v: models differ", spec, q)
		}
	}
}

func TestTrainingLearnsBias(t *testing.T) {
	// Stream of 4-bit "instructions" where bit 0 (MSB) is almost always 1
	// and the rest follow it: the model must predict accordingly.
	rng := rand.New(rand.NewSource(9))
	words := make([]uint32, 4000)
	for i := range words {
		if rng.Intn(10) > 0 {
			words[i] = 0xF
		} else {
			words[i] = 0x0
		}
	}
	tr, _ := NewTrainer(Spec{Widths: []int{4}})
	feed(tr, words, 8)
	m := tr.Finalize(false)
	wk := m.NewWalker()
	// Root prediction: P(first bit = 0) must be small (≈0.1).
	if p := float64(wk.P0()) / arith.ProbOne; p > 0.2 {
		t.Fatalf("root P0 = %v, want ≈0.1", p)
	}
	// After a 1, the next bits are almost surely 1.
	wk.Advance(1)
	if p := float64(wk.P0()) / arith.ProbOne; p > 0.05 {
		t.Fatalf("P0 after 1 = %v, want ≈0", p)
	}
	// After a 0, the next bits are almost surely 0.
	wk.Reset()
	wk.Advance(0)
	if p := float64(wk.P0()) / arith.ProbOne; p < 0.9 {
		t.Fatalf("P0 after 0 = %v, want ≈1", p)
	}
}

func TestWalkerStreamWrap(t *testing.T) {
	spec := Spec{Widths: []int{2, 2}}
	tr, _ := NewTrainer(spec)
	m := tr.Finalize(false)
	wk := m.NewWalker()
	// 4 bits = one full instruction; the walker must return to the initial
	// state of stream 0.
	for i := 0; i < 4; i++ {
		wk.Advance(1)
	}
	if wk.w.stream != 0 || wk.w.depth != 0 || wk.w.path != 0 {
		t.Fatalf("walker did not wrap: %+v", wk.w)
	}
}

func TestConnectedContextSwitches(t *testing.T) {
	// Craft data where stream 1's first bit strongly depends on stream 0's
	// last bit; connected mode must capture it, independent mode cannot.
	words := make([]uint32, 2000)
	rng := rand.New(rand.NewSource(4))
	for i := range words {
		a := uint32(rng.Intn(4)) // stream 0 (2 bits)
		b := (a & 1) << 1        // stream 1's first bit copies stream 0's last
		b |= uint32(rng.Intn(2)) // stream 1's last bit is noise
		words[i] = a<<2 | b
	}
	spec := Spec{Widths: []int{2, 2}, Connected: true}
	trC, _ := NewTrainer(spec)
	feed(trC, words, 8)
	trI, _ := NewTrainer(Spec{Widths: []int{2, 2}})
	feed(trI, words, 8)
	// Connected entropy must be significantly lower: it can predict stream
	// 1's first bit, worth ~1 bit per word.
	hC, hI := trC.EntropyBits(), trI.EntropyBits()
	if hC > hI-0.5*float64(len(words)) {
		t.Fatalf("connected entropy %.0f vs independent %.0f: link not exploited", hC, hI)
	}
	// And the frozen model's root contexts must differ for stream 1.
	m := trC.Finalize(false)
	if m.probs[1][0][0] == m.probs[1][1][0] {
		t.Fatal("connected contexts are identical")
	}
}

func TestEntropyBitsUniformAndDegenerate(t *testing.T) {
	tr, _ := NewTrainer(Spec{Widths: []int{1}})
	// 512 zeros + 512 ones at the single root node: entropy = 1024 bits.
	for i := 0; i < 512; i++ {
		tr.ResetBlock()
		tr.AddWord(0)
		tr.ResetBlock()
		tr.AddWord(1)
	}
	if h := tr.EntropyBits(); math.Abs(h-1024) > 1e-6 {
		t.Fatalf("uniform entropy = %v, want 1024", h)
	}
	tr2, _ := NewTrainer(Spec{Widths: []int{1}})
	for i := 0; i < 100; i++ {
		tr2.ResetBlock()
		tr2.AddWord(0)
	}
	if h := tr2.EntropyBits(); h != 0 {
		t.Fatalf("degenerate entropy = %v, want 0", h)
	}
}

func TestFinalizeQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := newBitTrainer(Spec{Widths: []int{3}})
	for i := 0; i < 3000; i++ {
		if i%8 == 0 {
			tr.ResetBlock()
		}
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(true)
	for _, streams := range m.probs {
		for _, nodes := range streams {
			for _, p := range nodes {
				lps := uint32(p)
				if p > arith.ProbHalf {
					lps = arith.ProbOne - uint32(p)
				}
				if lps&(lps-1) != 0 {
					t.Fatalf("quantized prob %d has non-power-of-two LPS %d", p, lps)
				}
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	spec := Spec{Widths: []int{4, 3, 5}, Connected: true}
	tr, _ := newBitTrainer(spec)
	for i := 0; i < 5000; i++ {
		if i%12 == 0 {
			tr.ResetBlock()
		}
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(false)
	data := m.Serialize()
	m2, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Spec().Connected != spec.Connected || len(m2.Spec().Widths) != len(spec.Widths) {
		t.Fatalf("spec mismatch: %+v", m2.Spec())
	}
	// Walk both models over the same bits and compare predictions.
	w1, w2 := m.NewWalker(), m2.NewWalker()
	for i := 0; i < 500; i++ {
		if w1.P0() != w2.P0() {
			t.Fatalf("prediction mismatch at step %d", i)
		}
		bit := rng.Intn(2)
		w1.Advance(bit)
		w2.Advance(bit)
	}
	// Truncated input must fail, not panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Deserialize(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Property: the walker visits only legal node indices and always wraps.
func TestQuickWalkerBounds(t *testing.T) {
	f := func(seed int64, connected bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		widths := make([]int, k)
		total := 0
		for i := range widths {
			widths[i] = 1 + rng.Intn(8)
			total += widths[i]
		}
		spec := Spec{Widths: widths, Connected: connected}
		tr, err := newBitTrainer(spec)
		if err != nil {
			return false
		}
		for i := 0; i < 200*total; i++ {
			if rng.Intn(50) == 0 {
				tr.ResetBlock()
			}
			tr.Add(rng.Intn(2)) // would panic on any out-of-range index
		}
		m := tr.Finalize(rng.Intn(2) == 0)
		wk := m.NewWalker()
		for i := 0; i < 100*total; i++ {
			_ = wk.P0() // would panic on a bad index
			wk.Advance(rng.Intn(2))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: model entropy never exceeds raw size, and training on constant
// data drives it to ~0.
func TestQuickEntropyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := NewTrainer(Spec{Widths: []int{4, 4}})
		n := 500 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			if i%8 == 0 {
				tr.ResetBlock()
			}
			tr.AddWord(uint64(rng.Intn(256)))
		}
		return tr.EntropyBits() <= float64(8*n)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrainerAddWord(b *testing.B) {
	tr, _ := NewTrainer(Spec{Widths: []int{8, 8, 8, 8}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			tr.ResetBlock()
		}
		tr.AddWord(uint64(i) * 0x9e3779b9 & 0xffffffff)
	}
}

func BenchmarkWalker(b *testing.B) {
	tr, _ := newBitTrainer(Spec{Widths: []int{8, 8, 8, 8}, Connected: true})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(false)
	wk := m.NewWalker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wk.P0()
		wk.Advance(i & 1)
	}
}

// flatWalker steps the trees Flattened returns the way the SAMC decode
// kernel does: heap-ordered children (2v+1 for bit 0, 2v+2 for bit 1)
// within a stream, and at a stream boundary the next stream's tree for
// the root context the last bit selects (always 0 unless connected).
type flatWalker struct {
	flat                []uint16
	offs, widths        []int32
	nCtx                int32
	stream, depth, node int32
	base                int32
}

func newFlatWalker(m *Model) *flatWalker {
	w := &flatWalker{}
	w.flat, w.offs, w.widths, w.nCtx = m.Flattened()
	w.reset()
	return w
}

func (w *flatWalker) reset() { w.stream, w.depth, w.node, w.base = 0, 0, 0, w.offs[0] }

func (w *flatWalker) p0() uint16 { return w.flat[w.base+w.node] }

func (w *flatWalker) advance(bit int) {
	w.depth++
	if w.depth < w.widths[w.stream] {
		w.node = 2*w.node + 1 + int32(bit&1)
		return
	}
	w.stream = (w.stream + 1) % int32(len(w.widths))
	w.base = w.offs[w.stream*w.nCtx+int32(bit&1)%w.nCtx]
	w.depth, w.node = 0, 0
}

// Property: the flat trees give exactly Walker's predictions along
// arbitrary specs, bit sequences, and block resets.
func TestQuickFlattenedEquivalence(t *testing.T) {
	f := func(seed int64, connected bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		widths := make([]int, k)
		total := 0
		for i := range widths {
			widths[i] = 1 + rng.Intn(8)
			total += widths[i]
		}
		spec := Spec{Widths: widths, Connected: connected}
		tr, err := newBitTrainer(spec)
		if err != nil {
			return false
		}
		for i := 0; i < 200*total; i++ {
			if rng.Intn(50) == 0 {
				tr.ResetBlock()
			}
			tr.Add(rng.Intn(2))
		}
		m := tr.Finalize(rng.Intn(2) == 0)
		slow := m.NewWalker()
		flat := newFlatWalker(m)
		for i := 0; i < 300*total; i++ {
			if rng.Intn(60) == 0 {
				slow.Reset()
				flat.reset()
			}
			if slow.P0() != flat.p0() {
				t.Logf("seed %d: P0 diverged at step %d: %d vs %d", seed, i, slow.P0(), flat.p0())
				return false
			}
			bit := rng.Intn(2)
			slow.Advance(bit)
			flat.advance(bit)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFlattenedSeesReducedPrecision: ReducePrecision invalidates a flat
// copy built at full precision.
func TestFlattenedSeesReducedPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _ := newBitTrainer(Spec{Widths: []int{4, 4}, Connected: true})
	for i := 0; i < 10000; i++ {
		if i%8 == 0 {
			tr.ResetBlock()
		}
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(false)
	m.Flattened()        // flatten at full precision
	m.ReducePrecision(8) // must invalidate the flattened copy
	slow, flat := m.NewWalker(), newFlatWalker(m)
	for i := 0; i < 1000; i++ {
		if slow.P0() != flat.p0() {
			t.Fatalf("step %d: flat trees stale after ReducePrecision: %d vs %d",
				i, slow.P0(), flat.p0())
		}
		bit := rng.Intn(2)
		slow.Advance(bit)
		flat.advance(bit)
	}
}

func TestPeekP0MatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := Spec{Widths: []int{3, 5, 4}, Connected: true}
	tr, _ := newBitTrainer(spec)
	for i := 0; i < 20000; i++ {
		if i%96 == 0 {
			tr.ResetBlock()
		}
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(false)
	wk := m.NewWalker()
	// From random positions, peeking any path must equal advancing a fresh
	// walker along it.
	for step := 0; step < 500; step++ {
		depth := rng.Intn(6)
		path := uint32(rng.Intn(1 << uint(depth)))
		// Reference: copy the walker by replaying from reset.
		ref := *wk
		for i := depth - 1; i >= 0; i-- {
			ref.Advance(int(path >> uint(i) & 1))
		}
		if got, want := wk.PeekP0(path, depth), ref.P0(); got != want {
			t.Fatalf("step %d: PeekP0(%b,%d) = %d, want %d", step, path, depth, got, want)
		}
		// PeekP0 must not move the walker.
		if wk.P0() != (*wk).P0() {
			t.Fatal("PeekP0 moved the walker")
		}
		wk.Advance(rng.Intn(2))
	}
}

func TestReducePrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr, _ := newBitTrainer(Spec{Widths: []int{4}})
	for i := 0; i < 10000; i++ {
		if i%8 == 0 {
			tr.ResetBlock()
		}
		tr.Add(rng.Intn(2))
	}
	m := tr.Finalize(false)
	full := m.StorageBits()
	m.ReducePrecision(8)
	if m.StorageBits() != full/2 {
		t.Fatalf("8-bit storage = %d, want %d", m.StorageBits(), full/2)
	}
	for _, streams := range m.probs {
		for _, nodes := range streams {
			for _, p := range nodes {
				if p%256 != 0 {
					t.Fatalf("probability %d not on the 8-bit grid", p)
				}
				if p == 0 {
					t.Fatalf("probability %d became certain", p)
				}
			}
		}
	}
	for _, bad := range []int{0, 1, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReducePrecision(%d) must panic", bad)
				}
			}()
			m.ReducePrecision(bad)
		}()
	}
}
