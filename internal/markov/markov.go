// Package markov implements the binary Markov trees that drive SAMC's
// arithmetic coder (§3 of the paper).
//
// An instruction of n bits is divided into k streams of widths k_0..k_{n-1}.
// Each stream owns a complete binary tree whose nodes are the bit prefixes
// seen so far within the stream: the root is "no input", its children "0
// input" and "1 input", and so on. A tree over a k-bit stream stores
// (2^{k+1}-2)/2 = 2^k - 1 probabilities — only the left (bit = 0) branch
// probabilities, the right branches being their complements.
//
// The model is semiadaptive: a first pass over the subject program gathers
// transition counts, which are frozen into fixed-point predictions used
// identically by compressor and decompressor. In connected mode (paper
// Figure 4) the trees of adjacent streams are linked: the final bit of
// stream i selects which of two root contexts of stream i+1 is used, giving
// the model one bit of memory across stream boundaries. At a cache-block
// boundary the walk restarts at stream 0's unconditioned context so each
// block decompresses independently.
package markov

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"codecomp/internal/arith"
)

// MaxStreamBits bounds a single stream's width; a k-bit stream needs 2^k - 1
// stored probabilities, so 16 bits (65535 probabilities) is the practical
// ceiling for a table-driven hardware decompressor.
const MaxStreamBits = 16

// Spec describes a stream subdivision of a fixed-width instruction.
type Spec struct {
	Widths    []int // bits per stream; sum = instruction width
	Connected bool  // link adjacent trees with a 1-bit context
}

// Validate checks the spec's widths.
func (s Spec) Validate() error {
	if len(s.Widths) == 0 {
		return fmt.Errorf("markov: no streams")
	}
	for i, w := range s.Widths {
		if w < 1 || w > MaxStreamBits {
			return fmt.Errorf("markov: stream %d width %d outside [1,%d]", i, w, MaxStreamBits)
		}
	}
	return nil
}

// InstructionBits returns the total instruction width the spec covers.
func (s Spec) InstructionBits() int {
	n := 0
	for _, w := range s.Widths {
		n += w
	}
	return n
}

// numContexts returns how many root contexts each tree has: 2 in connected
// mode (previous stream's final bit), 1 otherwise.
func (s Spec) numContexts() int {
	if s.Connected {
		return 2
	}
	return 1
}

// nodeIndex maps a (depth, pathPrefix) pair to the flat tree index. The
// root (depth 0, empty prefix) is node 0.
func nodeIndex(depth, path int) int { return (1 << depth) - 1 + path }

// Trainer accumulates 0/1 transition counts for every tree node.
type Trainer struct {
	spec   Spec
	counts [][][]uint64 // [stream][ctx][child]: node x's 0 and 1 counts at 2x and 2x+1
	width  uint         // instruction bits, the sum of spec.Widths
	prev   int          // root context of the next word's stream 0
}

type walkState struct {
	stream, depth, path, prev int
}

func (w *walkState) reset() { w.stream, w.depth, w.path, w.prev = 0, 0, 0, 0 }

// NewTrainer allocates count tables for the given spec.
func NewTrainer(spec Spec) (*Trainer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{spec: spec, width: uint(spec.InstructionBits())}
	t.counts = make([][][]uint64, len(spec.Widths))
	for i, w := range spec.Widths {
		t.counts[i] = make([][]uint64, spec.numContexts())
		for c := range t.counts[i] {
			t.counts[i][c] = make([]uint64, 2<<w)
		}
	}
	return t, nil
}

// ResetBlock restarts the walk at a cache-block boundary, mirroring the
// paper's per-block model reset.
func (t *Trainer) ResetBlock() { t.prev = 0 }

// AddWord observes one instruction. word holds its InstructionBits bits in
// coding order, the first-coded bit most significant (all of stream 0's
// bits, then stream 1's, and so on); streams.Gather produces that order.
// Each stream walks its tree by 1-based heap index, the layout of the
// decode kernels' padded trees: the root is 1 and node x steps to child
// 2x+bit. A step is counted at the child's index, so node x's 0 and 1
// counts sit at 2x and 2x+1, and with the stream's k bits under a
// leading 1 (leaf), the child reached with j bits still to come is
// leaf>>j. In connected mode a stream's last bit picks the next stream's
// root context, across word boundaries too.
func (t *Trainer) AddWord(word uint64) {
	shift, ctx := t.width, t.prev
	for s, k := range t.spec.Widths {
		shift -= uint(k)
		leaf := word>>shift&(1<<k-1) | 1<<k
		tree := t.counts[s][ctx]
		for j := k - 1; j >= 0; j-- {
			tree[leaf>>uint(j)]++
		}
		if t.spec.Connected {
			ctx = int(leaf & 1)
		}
	}
	t.prev = ctx
}

// ctx selects the root context for the walk state.
func (w *walkState) ctx(spec Spec) int {
	if spec.Connected {
		return w.prev
	}
	return 0
}

// advance moves the walk one bit forward: deeper within the current tree, or
// into the next stream's root when the stream is exhausted.
func advance(w *walkState, spec Spec, bit int) {
	bit &= 1
	w.depth++
	if w.depth == spec.Widths[w.stream] {
		w.prev = bit
		w.stream = (w.stream + 1) % len(spec.Widths)
		w.depth, w.path = 0, 0
		return
	}
	w.path = w.path<<1 | bit
}

// EntropyBits returns the total ideal code length, in bits, of the training
// data under the trained (unsmoothed) model — the objective the paper's
// stream-assignment search minimizes.
func (t *Trainer) EntropyBits() float64 {
	var total float64
	for _, streams := range t.counts {
		for _, tree := range streams {
			for x := 2; x < len(tree); x += 2 {
				c := tree[x : x+2]
				n := c[0] + c[1]
				if n == 0 {
					continue
				}
				for b := 0; b < 2; b++ {
					if c[b] > 0 {
						p := float64(c[b]) / float64(n)
						total -= float64(c[b]) * math.Log2(p)
					}
				}
			}
		}
	}
	return total
}

// Finalize freezes counts into a Model. If quantize is set, probabilities
// are rounded so the less probable symbol's probability is a power of ½
// (the paper's shift-only hardware mode).
func (t *Trainer) Finalize(quantize bool) *Model {
	m := &Model{spec: t.spec}
	m.probs = make([][][]uint16, len(t.counts))
	for i, streams := range t.counts {
		m.probs[i] = make([][]uint16, len(streams))
		for c, tree := range streams {
			ps := make([]uint16, len(tree)/2-1)
			for n := range ps {
				cnt := tree[2*n+2 : 2*n+4]
				// Laplace smoothing keeps every probability inside (0,1) so
				// the coder never sees a certain prediction it must violate.
				p0 := arith.ClampProb(int((cnt[0] + 1) * arith.ProbOne / (cnt[0] + cnt[1] + 2)))
				if quantize {
					p0 = arith.QuantizePow2(p0)
				}
				ps[n] = p0
			}
			m.probs[i][c] = ps
		}
	}
	if quantize {
		// Power-of-½ probabilities need only a sign bit plus a 4-bit
		// exponent in the probability memory.
		m.precision = 5
	}
	return m
}

// Model is a frozen semiadaptive Markov model.
type Model struct {
	spec      Spec
	probs     [][][]uint16 // [stream][ctx][node]
	precision int          // stored bits per probability (default ProbBits)

	// Flattened probability memory for the fused decode kernels, built
	// lazily on first use by Flattened. flat concatenates every
	// (stream, ctx) tree; flatOffs[stream*numContexts+ctx] is each tree's
	// base. Guarded by flatOnce so concurrent block decodes share one
	// build.
	flatOnce sync.Once
	flat     []uint16
	flatOffs []int32
	flatW    []int32
}

// Spec returns the stream subdivision the model was trained for.
func (m *Model) Spec() Spec { return m.spec }

// NumProbabilities returns the count of stored probabilities — the paper's
// Σ_i (2^{k_i+1}-2)/2, doubled per root context in connected mode.
func (m *Model) NumProbabilities() int {
	n := 0
	for _, streams := range m.probs {
		for _, nodes := range streams {
			n += len(nodes)
		}
	}
	return n
}

// StorageBits returns the model's storage cost in bits — the size of the
// decompressor's probability memory at the model's stored precision.
func (m *Model) StorageBits() int {
	p := m.precision
	if p == 0 {
		p = arith.ProbBits
	}
	return m.NumProbabilities() * p
}

// ReducePrecision rounds every probability to `bits` significant bits (the
// resolution of a hardware probability memory with bits-wide words) and
// records that precision for StorageBits. The coder then uses exactly the
// reduced probabilities, so the storage accounting stays honest. bits must
// be in [2, 16]; probabilities are clamped so no prediction becomes
// certain.
func (m *Model) ReducePrecision(bits int) {
	if bits < 2 || bits > arith.ProbBits {
		panic(fmt.Sprintf("markov: precision %d outside [2,%d]", bits, arith.ProbBits))
	}
	step := 1 << (arith.ProbBits - bits)
	lo, hi := step, arith.ProbOne-step
	for _, streams := range m.probs {
		for _, nodes := range streams {
			for i, p := range nodes {
				v := (int(p) + step/2) / step * step
				if v < lo {
					v = lo
				}
				if v > hi {
					v = hi
				}
				nodes[i] = uint16(v)
			}
		}
	}
	m.precision = bits
	// Invalidate any flattened copy so Flattened returns the reduced
	// probabilities. ReducePrecision is a setup-time call; it must not race
	// with concurrent decoding.
	m.flatOnce = sync.Once{}
	m.flat, m.flatOffs, m.flatW = nil, nil, nil
}

// Walker walks the model during coding. Compressor and decompressor each
// drive their own Walker with the same bit sequence, so they observe the
// same predictions.
type Walker struct {
	m *Model
	w walkState
}

// NewWalker returns a Walker positioned at the initial state.
func (m *Model) NewWalker() *Walker {
	wk := &Walker{m: m}
	wk.Reset()
	return wk
}

// Reset restarts the walk (cache-block boundary).
func (wk *Walker) Reset() { wk.w.reset() }

// P0 returns the current node's prediction that the next bit is 0.
func (wk *Walker) P0() uint16 {
	node := nodeIndex(wk.w.depth, wk.w.path)
	return wk.m.probs[wk.w.stream][wk.w.ctx(wk.m.spec)][node]
}

// Advance consumes the bit that was coded and moves to the next state.
func (wk *Walker) Advance(bit int) { advance(&wk.w, wk.m.spec, bit) }

// PeekP0 returns the prediction the walker would give after advancing
// through the depth bits of path (MSB first) — the lookahead the
// nibble-parallel decoder's probability memory performs when filling its
// speculative midpoint tree. The walker itself does not move.
func (wk *Walker) PeekP0(path uint32, depth int) uint16 {
	w := wk.w
	for i := depth - 1; i >= 0; i-- {
		advance(&w, wk.m.spec, int(path>>uint(i)&1))
	}
	node := nodeIndex(w.depth, w.path)
	return wk.m.probs[w.stream][w.ctx(wk.m.spec)][node]
}

// flatten builds the probability memory Flattened returns.
func (m *Model) flatten() {
	nCtx := m.spec.numContexts()
	offs := make([]int32, len(m.probs)*nCtx)
	total := 0
	for i, streams := range m.probs {
		for c, nodes := range streams {
			offs[i*nCtx+c] = int32(total)
			total += len(nodes)
		}
	}
	flat := make([]uint16, 0, total)
	for _, streams := range m.probs {
		for _, nodes := range streams {
			flat = append(flat, nodes...)
		}
	}
	widths := make([]int32, len(m.spec.Widths))
	for i, w := range m.spec.Widths {
		widths[i] = int32(w)
	}
	m.flat, m.flatOffs, m.flatW = flat, offs, widths
}

// Flattened exposes the model's flat probability memory for fused decode
// kernels (samc.AppendBlock): flat holds every (stream, ctx) tree
// concatenated, offs[stream*nCtx+ctx] is each tree's base, widths the
// per-stream bit counts, and nCtx the root contexts per stream (2 when
// connected). Within a tree, nodes are heap-ordered: the root is 0 and the
// children of node v are 2v+1 (bit 0) and 2v+2 (bit 1). The returned slices
// are shared and must not be mutated.
func (m *Model) Flattened() (flat []uint16, offs []int32, widths []int32, nCtx int32) {
	m.flatOnce.Do(m.flatten)
	return m.flat, m.flatOffs, m.flatW, int32(m.spec.numContexts())
}

// Serialize encodes the model (spec + probabilities) into a byte slice, the
// image a decompressor's probability memory would be loaded with.
func (m *Model) Serialize() []byte {
	var out []byte
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.spec.Widths)))
	for _, w := range m.spec.Widths {
		out = append(out, byte(w))
	}
	if m.spec.Connected {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	prec := m.precision
	if prec == 0 {
		prec = arith.ProbBits
	}
	out = append(out, byte(prec))
	for _, streams := range m.probs {
		for _, nodes := range streams {
			for _, p := range nodes {
				out = binary.BigEndian.AppendUint16(out, p)
			}
		}
	}
	return out
}

// Deserialize reconstructs a Model produced by Serialize.
func Deserialize(data []byte) (*Model, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("markov: truncated model header")
	}
	k := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	if len(data) < k+2 {
		return nil, fmt.Errorf("markov: truncated stream widths")
	}
	spec := Spec{Widths: make([]int, k)}
	for i := 0; i < k; i++ {
		spec.Widths[i] = int(data[i])
	}
	spec.Connected = data[k] == 1
	prec := int(data[k+1])
	data = data[k+2:]
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if prec < 2 || prec > arith.ProbBits {
		return nil, fmt.Errorf("markov: invalid stored precision %d", prec)
	}
	m := &Model{spec: spec, precision: prec}
	m.probs = make([][][]uint16, k)
	for i, w := range spec.Widths {
		m.probs[i] = make([][]uint16, spec.numContexts())
		for c := range m.probs[i] {
			n := (1 << w) - 1
			if len(data) < 2*n {
				return nil, fmt.Errorf("markov: truncated probabilities for stream %d", i)
			}
			ps := make([]uint16, n)
			for j := 0; j < n; j++ {
				ps[j] = binary.BigEndian.Uint16(data[2*j:])
			}
			data = data[2*n:]
			m.probs[i][c] = ps
		}
	}
	return m, nil
}
