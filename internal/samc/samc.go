// Package samc implements SAMC — Semiadaptive Markov Compression — the
// paper's ISA-independent code compressor (§3).
//
// SAMC divides each fixed-width instruction into bit streams, trains one
// binary Markov tree per stream over the whole program (semiadaptive, two
// passes), and drives the 24-bit binary arithmetic coder with the trees'
// predictions. Both the coding interval and the Markov walk are reset at
// every cache-block boundary, so any block can be decompressed on its own —
// the property the Wolfe/Chanin compressed-memory organization requires.
//
// For a RISC target the canonical configuration is 32-bit instructions in
// four 8-bit streams (optionally chosen by the streams.Optimize search).
// For a CISC target like x86 there is no fixed instruction width, so the
// program is treated as a sequence of 8-bit "instructions" — a single
// byte-wide stream — exactly as §5 describes.
package samc

import (
	"fmt"
	"sync"

	"codecomp/internal/arith"
	"codecomp/internal/markov"
	"codecomp/internal/streams"
)

// Options configures compression.
type Options struct {
	// BlockSize is the cache-block granularity in bytes (paper default 32).
	BlockSize int
	// WordBytes is the instruction width in bytes: 4 for MIPS, 1 for raw
	// byte-stream (x86) mode.
	WordBytes int
	// Division is the stream subdivision. Zero value → contiguous equal
	// split into 4 streams for 32-bit words, or the single 8-bit stream for
	// byte mode.
	Division streams.Division
	// Connected links adjacent streams' Markov trees (paper Figure 4).
	Connected bool
	// Quantize rounds model probabilities so the less probable symbol has a
	// power-of-two probability (shift-only hardware decoder).
	Quantize bool
	// ProbPrecision is the width in bits of the decompressor's probability
	// memory words; predictions are rounded to this resolution and charged
	// at it (default 8). Ignored when Quantize is set (5 bits suffice for a
	// power-of-½ exponent).
	ProbPrecision int
}

// withDefaults validates and fills an Options value.
func (o Options) withDefaults() (Options, error) {
	if o.BlockSize == 0 {
		o.BlockSize = 32
	}
	if o.WordBytes == 0 {
		o.WordBytes = 4
	}
	if o.WordBytes != 1 && o.WordBytes != 2 && o.WordBytes != 4 {
		return o, fmt.Errorf("samc: unsupported word size %d", o.WordBytes)
	}
	if o.BlockSize%o.WordBytes != 0 {
		return o, fmt.Errorf("samc: block size %d not a multiple of word size %d", o.BlockSize, o.WordBytes)
	}
	if o.Division.Width == 0 {
		switch o.WordBytes {
		case 1:
			o.Division = streams.Contiguous(8, 1)
		case 2:
			o.Division = streams.Contiguous(16, 2)
		case 4:
			o.Division = streams.Contiguous(32, 4)
		}
	}
	if o.Division.Width != 8*o.WordBytes {
		return o, fmt.Errorf("samc: division covers %d bits, word has %d", o.Division.Width, 8*o.WordBytes)
	}
	if err := o.Division.Validate(); err != nil {
		return o, err
	}
	if o.ProbPrecision == 0 {
		o.ProbPrecision = 8
	}
	if o.ProbPrecision < 2 || o.ProbPrecision > arith.ProbBits {
		return o, fmt.Errorf("samc: probability precision %d outside [2,%d]", o.ProbPrecision, arith.ProbBits)
	}
	return o, nil
}

// Compressed is a SAMC-compressed program image.
type Compressed struct {
	Model     *markov.Model
	Division  streams.Division
	BlockSize int
	WordBytes int
	OrigSize  int
	Blocks    [][]byte

	// The encode and decode kernels' tables, built once on first use
	// (concurrent block codings share them; see initKernel). identity
	// records whether the coding order already matches architectural bit
	// order (true for the default contiguous divisions), letting the
	// kernels skip the per-word gather and scatter.
	kernelOnce sync.Once
	shifts     []uint8
	identity   bool
	trees      []streamTrees
}

// Compress compresses a program text. len(text) must be a multiple of the
// word size.
func Compress(text []byte, opts Options) (*Compressed, error) {
	c, err := Train(text, opts)
	if err != nil {
		return nil, err
	}
	// Pass 2: arithmetic-code each block against the frozen model.
	forEachBlock(text, c.BlockSize, func(block []byte) {
		payload, _ := c.EncodeBlock(block) // cannot fail: Train validated the geometry
		c.Blocks = append(c.Blocks, payload)
	})
	return c, nil
}

// Train runs Compress's first pass alone: it validates the options and
// trains the Markov model over the whole text, resetting the walk at
// block boundaries, and returns an image with the model and geometry but
// no payloads. A caller that needs only some blocks coded (the tiering
// layer) fills Blocks through EncodeBlock; any block of the text encodes
// exactly as Compress would have coded it.
func Train(text []byte, opts Options) (*Compressed, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(text)%opts.WordBytes != 0 {
		return nil, fmt.Errorf("samc: text size %d not a multiple of word size %d", len(text), opts.WordBytes)
	}
	trainer, err := markov.NewTrainer(markov.Spec{Widths: opts.Division.Widths(), Connected: opts.Connected})
	if err != nil {
		return nil, err
	}
	shifts, identity := codingOrder(opts.Division)
	forEachBlock(text, opts.BlockSize, func(block []byte) {
		trainer.ResetBlock()
		for w := 0; w < len(block); w += opts.WordBytes {
			trainer.AddWord(loadWord(block[w:w+opts.WordBytes], shifts, identity))
		}
	})
	model := trainer.Finalize(opts.Quantize)
	if !opts.Quantize {
		model.ReducePrecision(opts.ProbPrecision)
	}
	return &Compressed{
		Model:     model,
		Division:  opts.Division,
		BlockSize: opts.BlockSize,
		WordBytes: opts.WordBytes,
		OrigSize:  len(text),
	}, nil
}

// EncodeBlock arithmetic-codes one block's worth of bytes against the
// image's frozen Markov model — the Compress pass-2 kernel exposed for
// block-granular re-encoding (the tiering layer migrates individual blocks
// between codecs without retraining). The model is semiadaptive, so any
// byte content encodes losslessly; content unlike the training text just
// codes near (or above) 8 bits per byte. len(block) must be a word
// multiple no larger than BlockSize. The returned payload decodes
// bit-identically through AppendBlock once installed at a block index of
// the same decoded length. Safe for concurrent use.
func (c *Compressed) EncodeBlock(block []byte) ([]byte, error) {
	if len(block) > c.BlockSize {
		return nil, fmt.Errorf("samc: block length %d exceeds block size %d", len(block), c.BlockSize)
	}
	if len(block)%c.WordBytes != 0 {
		return nil, fmt.Errorf("samc: block length %d not a multiple of word size %d", len(block), c.WordBytes)
	}
	// The payload is coded into stack scratch and copied out at its final
	// length, so the payload is the one allocation. Each word is gathered
	// into coding order once, and each of its streams codes in one call to
	// blockEncoder.stream over the decode kernel's padded trees.
	c.kernelOnce.Do(c.initKernel)
	shifts, trees := c.shifts, c.trees
	var scratch [256]byte
	e := blockEncoder{hi: arith.Top, out: scratch[:0]}
	ctx := 0
	for w := 0; w < len(block); w += c.WordBytes {
		word := loadWord(block[w:w+c.WordBytes], shifts, c.identity)
		shift := uint(len(shifts))
		for s := range trees {
			k := trees[s].k
			shift -= k
			bits := uint32(word>>shift) & (1<<k - 1)
			e = e.stream(trees[s].root[ctx], k, bits)
			ctx = int(bits & 1)
		}
	}
	payload := append(e.out, byte(e.lo>>16), byte(e.lo>>8), byte(e.lo))
	return append([]byte(nil), payload...), nil
}

// forEachBlock visits text in blockSize chunks (last may be short).
func forEachBlock(text []byte, blockSize int, f func([]byte)) {
	for off := 0; off < len(text); off += blockSize {
		end := off + blockSize
		if end > len(text) {
			end = len(text)
		}
		f(text[off:end])
	}
}

// codingOrder returns the division's scatter table (streams.Division.Shifts)
// and whether the coding order is the architectural bit order, as it is for
// the default contiguous divisions.
func codingOrder(d streams.Division) (shifts []uint8, identity bool) {
	shifts = d.Shifts()
	for j, s := range shifts {
		if int(s) != len(shifts)-1-j {
			return shifts, false
		}
	}
	return shifts, true
}

// loadWord reads a big-endian word and gathers its bits into coding order,
// first-coded bit most significant.
func loadWord(word []byte, shifts []uint8, identity bool) uint64 {
	var w uint64
	for _, b := range word {
		w = w<<8 | uint64(b)
	}
	if identity {
		return w
	}
	return streams.Gather(w, shifts)
}

// NumBlocks returns the block count.
func (c *Compressed) NumBlocks() int { return len(c.Blocks) }

// blockOrigLen returns the uncompressed byte length of block i.
func (c *Compressed) blockOrigLen(i int) int {
	n := c.BlockSize
	if (i+1)*c.BlockSize > c.OrigSize {
		n = c.OrigSize - i*c.BlockSize
	}
	return n
}

// Block decompresses a single cache block — the random-access operation the
// cache refill engine performs on a miss.
func (c *Compressed) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("samc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.AppendBlock(make([]byte, 0, c.blockOrigLen(i)), i)
}

// blockReference is the original bit-serial decode path: heap-allocated
// decoder and walker, per-word bit staging through Division.Assemble. It is
// kept as the differential-testing reference for AppendBlock and as the
// baseline the benchmark harness measures speedups against.
func (c *Compressed) blockReference(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("samc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	n := c.blockOrigLen(i)
	out := make([]byte, 0, n)
	dec := arith.NewDecoder(c.Blocks[i])
	walker := c.Model.NewWalker()
	bits := make([]int, c.Division.Width)
	for w := 0; w < n; w += c.WordBytes {
		for j := range bits {
			bit := dec.DecodeBit(walker.P0())
			walker.Advance(bit)
			bits[j] = bit
		}
		word := c.Division.Assemble(bits)
		for b := c.WordBytes - 1; b >= 0; b-- {
			out = append(out, byte(word>>(8*b)))
		}
	}
	return out, nil
}

// AppendBlock decompresses block i and appends the output to dst, returning
// the extended slice. It is the fast path of Block: bit-identical output,
// but zero transient allocations and no per-bit calls — each stream of
// each word decodes in one register-resident leaf loop (see
// blockDecoder.stream) over padded per-stream trees, and the per-word bit
// scratch is replaced by direct word assembly through a flat shift table.
// dst is reused when it has capacity. Safe for concurrent use.
func (c *Compressed) AppendBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("samc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.appendBlockN(dst, i, c.blockOrigLen(i))
}

// AppendBlockPrefix decompresses only the first n bytes of block i: the
// arithmetic decode stops after the word containing the requested offset
// (the model walk is strictly sequential, so whole words up to the
// offset must still be decoded) and the output is truncated to n bytes.
// Bit-identical to the same-length prefix of AppendBlock.
func (c *Compressed) AppendBlockPrefix(dst []byte, i, n int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("samc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	if want := c.blockOrigLen(i); n > want {
		n = want
	}
	if n <= 0 {
		return dst, nil
	}
	// Decode whole words covering the prefix, then trim the overshoot.
	limit := (n + c.WordBytes - 1) / c.WordBytes * c.WordBytes
	if want := c.blockOrigLen(i); limit > want {
		limit = want
	}
	out, err := c.appendBlockN(dst, i, limit)
	if err != nil {
		return nil, err
	}
	return out[:len(dst)+n], nil
}

// appendBlockN is the decode kernel behind AppendBlock and
// AppendBlockPrefix: it produces the first n bytes of block i, where the
// caller has validated i and clamped n to a word multiple no larger than
// the block's decoded length. The per-bit work runs in
// blockDecoder.stream, one call per stream of each word; this loop only
// picks each stream's tree and assembles the words.
func (c *Compressed) appendBlockN(dst []byte, i, n int) ([]byte, error) {
	c.kernelOnce.Do(c.initKernel)
	shifts, trees := c.shifts, c.trees
	wordBits := len(shifts)
	d := newBlockDecoder(c.Blocks[i])
	ctx := 0
	for w := 0; w < n; w += c.WordBytes {
		var word uint64
		for s := range trees {
			bits := d.stream(trees[s].root[ctx], trees[s].k)
			word = word<<trees[s].k | uint64(bits)
			// A connected tree's root is picked by the previous stream's
			// last bit; unconnected trees hold one root in both slots.
			ctx = int(bits & 1)
		}
		if !c.identity {
			// Scatter the coding-order bits to their architectural
			// positions (the paper's instruction-generator routing).
			var arch uint64
			for j, s := range shifts {
				arch |= word >> (wordBits - 1 - j) & 1 << s
			}
			word = arch
		}
		for b := c.WordBytes - 1; b >= 0; b-- {
			dst = append(dst, byte(word>>(8*b)))
		}
	}
	return dst, nil
}

// streamTrees is one stream's Markov trees as the encode and decode
// kernels read them: k bits wide, with root[ctx] the tree for root
// context ctx.
type streamTrees struct {
	k    uint
	root [2][]uint16
}

// initKernel builds the kernels' tables: the flat shift table, the
// identity-order flag, and each (stream, ctx) tree copied into a
// zero-padded slot of 2^(k+1) entries at 1-based heap indices (node v
// of the model's tree at v+1). A k-bit tree's deepest nodes sit at
// indices below 2^k, so their children index below 2^(k+1):
// blockDecoder.stream loads both children of every node, the last
// bit's included, with no per-bit depth test. The padding is never
// selected: the stream ends at its last bit.
func (c *Compressed) initKernel() {
	c.shifts, c.identity = codingOrder(c.Division)
	flat, offs, widths, nCtx := c.Model.Flattened()
	size := 0
	for _, k := range widths {
		size += int(nCtx) << (k + 1)
	}
	slots := make([]uint16, size)
	c.trees = make([]streamTrees, len(widths))
	for s, k := range widths {
		st := &c.trees[s]
		st.k = uint(k)
		nodes := int32(1)<<k - 1
		for ctx := range st.root {
			if int32(ctx) >= nCtx {
				st.root[ctx] = st.root[0]
				continue
			}
			base := offs[int32(s)*nCtx+int32(ctx)]
			tree := slots[: 2<<k : 2<<k]
			slots = slots[2<<k:]
			copy(tree[1:], flat[base:base+nodes])
			st.root[ctx] = tree
		}
	}
}

// blockDecoder is the paper's 24-bit arithmetic decoder with its state
// in a value, so the kernel keeps it on the stack: the interval
// [lo,hi), the 24-bit code window val, and the read position in the
// block's compressed bytes.
type blockDecoder struct {
	lo, hi, val uint32
	pos         int
	comp        []byte
}

// newBlockDecoder primes the 24-bit window, zero-filling past the end
// of the block like arith.Decoder.next: trailing window bytes are never
// examined.
func newBlockDecoder(comp []byte) blockDecoder {
	d := blockDecoder{hi: arith.Top, comp: comp}
	for k := 0; k < 3; k++ {
		d.val = d.val<<8 | uint32(d.next())
	}
	return d
}

// next fetches the next compressed byte, zero past the end.
func (d *blockDecoder) next() byte {
	if d.pos >= len(d.comp) {
		return 0
	}
	b := d.comp[d.pos]
	d.pos++
	return b
}

// stream decodes one k-bit stream (1 <= k <= markov.MaxStreamBits)
// against tree, a padded tree from initKernel, and returns its bits
// first-decoded-most-significant. It is a leaf of the kernel in all but
// the rare renormalisation, so the interval, window, walk and
// prediction stay in registers across the bit loop, which is written
// around its per-bit dependency chain (interval → midpoint → bit →
// interval):
//
//   - The interval is held as [lo, last] with last = hi-1, so the
//     midpoint's span hi-lo-1 is one subtraction.
//   - Of arith.mid's two fixups only m == lo can fire: renormalisation
//     keeps hi-lo >= MinRange on entry to every bit whatever the input
//     bytes, and p0 < ProbOne, so m <= lo + max(r*p0>>ProbBits, 1) <=
//     hi-2 and the m >= hi-1 fixup is dead.
//   - The walk uses 1-based heap indices: x starts at the root, 1, and
//     steps to 2x+bit, so after k bits x is the decoded bits under a
//     leading 1 and needs no separate bit counter or accumulator.
//   - Both children's predictions are loaded before the comparison
//     resolves, so the load latency hides under the chain.
//
// The bit selection is written as single-assignment conditionals, as in
// arith.DecodeBit, so it lowers to conditional moves.
func (d *blockDecoder) stream(tree []uint16, k uint) uint32 {
	lo, last, val := d.lo, d.hi-1, d.val
	end := uint(1) << k
	x := uint(1)
	p0 := tree[x]
	for x < end {
		c0, c1 := tree[2*x], tree[2*x+1]
		r := uint64(last - lo)
		m := lo + uint32(r*uint64(p0)>>arith.ProbBits)
		if m == lo {
			m++
		}
		ge := val >= m
		if ge {
			lo = m
		}
		if !ge {
			last = m - 1
		}
		bit := uint(0)
		if ge {
			bit = 1
		}
		p0 = c0
		if ge {
			p0 = c1
		}
		x = 2*x + bit
		if last-lo < arith.MinRange-1 {
			lo, last, val = d.renorm(lo, last+1, val)
			last--
		}
	}
	d.lo, d.hi, d.val = lo, last+1, val
	return uint32(x - end)
}

// renorm shifts compressed bytes into the window until the interval is
// wide enough again, with the carry-avoidance clamp, as
// arith.Decoder.renorm does. It runs about once per compressed byte, so
// it stays out of line to keep stream's loop small.
//
//go:noinline
func (d *blockDecoder) renorm(lo, hi, val uint32) (uint32, uint32, uint32) {
	for hi-lo < arith.MinRange {
		val = (val<<8 | uint32(d.next())) & (arith.Top - 1)
		lo = lo << 8 & (arith.Top - 1)
		hi = hi << 8 & (arith.Top - 1)
		if lo >= hi {
			hi = arith.Top
		}
	}
	return lo, hi, val
}

// blockEncoder is the encoder side of blockDecoder: the interval
// [lo,hi) and the payload appended to so far. Its methods take and
// return it by value, so it lives in registers and the payload buffer
// never escapes through a pointer: EncodeBlock codes into stack scratch.
type blockEncoder struct {
	lo, hi uint32
	out    []byte
}

// stream codes the k low bits of bits, first-coded most significant,
// against tree, a padded tree from initKernel, as k calls of
// arith.Encoder.EncodeBit along a markov.Walker would. The walk's heap
// indices depend only on the input bits, so each prediction's load runs
// ahead of the interval's per-bit chain (interval → midpoint →
// interval). Of arith.mid's two fixups only m == lo can fire, for the
// reason given at blockDecoder.stream.
func (e blockEncoder) stream(tree []uint16, k uint, bits uint32) blockEncoder {
	lo, hi := e.lo, e.hi
	x := uint(1)
	for i := int(k) - 1; i >= 0; i-- {
		bit := uint(bits>>uint(i)) & 1
		m := lo + uint32(uint64(hi-lo-1)*uint64(tree[x])>>arith.ProbBits)
		if m == lo {
			m++
		}
		if bit != 0 {
			lo = m
		}
		if bit == 0 {
			hi = m
		}
		x = 2*x + bit
		if hi-lo < arith.MinRange {
			e.lo, e.hi = lo, hi
			e = e.renorm()
			lo, hi = e.lo, e.hi
		}
	}
	e.lo, e.hi = lo, hi
	return e
}

// renorm emits the interval's top byte until it is wide enough again,
// with the carry-avoidance clamp, as arith.Encoder.EncodeBit does. It
// runs about once per payload byte, so it stays out of line.
//
//go:noinline
func (e blockEncoder) renorm() blockEncoder {
	for e.hi-e.lo < arith.MinRange {
		e.out = append(e.out, byte(e.lo>>16))
		e.lo = e.lo << 8 & (arith.Top - 1)
		e.hi = e.hi << 8 & (arith.Top - 1)
		if e.lo >= e.hi {
			e.hi = arith.Top
		}
	}
	return e
}

// BlockParallel decompresses a block with the nibble-parallel engine of §3
// Figure 5 (width-4 speculative midpoints). The output is bit-identical to
// Block; the returned stats feed the hardware cycle model: one cycle per
// nibble evaluation plus one per mid-nibble renormalization interrupt.
func (c *Compressed) BlockParallel(i int) ([]byte, arith.NibbleStats, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, arith.NibbleStats{}, fmt.Errorf("samc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	const width = 4
	n := c.blockOrigLen(i)
	out := make([]byte, 0, n)
	dec := arith.NewNibbleDecoder(c.Blocks[i], width)
	walker := c.Model.NewWalker()
	bits := make([]int, c.Division.Width)
	for w := 0; w < n; w += c.WordBytes {
		for j := 0; j < c.Division.Width; j += width {
			k := width
			if j+k > c.Division.Width {
				k = c.Division.Width - j
			}
			v := dec.DecodeNibble(k, walker.PeekP0)
			for b := 0; b < k; b++ {
				bit := int(v >> uint(k-1-b) & 1)
				bits[j+b] = bit
				walker.Advance(bit)
			}
		}
		word := c.Division.Assemble(bits)
		for b := c.WordBytes - 1; b >= 0; b-- {
			out = append(out, byte(word>>(8*b)))
		}
	}
	return out, dec.Stats(), nil
}

// Decompress reconstructs the whole program.
func (c *Compressed) Decompress() ([]byte, error) {
	out := make([]byte, 0, c.OrigSize)
	var err error
	for i := range c.Blocks {
		out, err = c.AppendBlock(out, i)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PayloadBytes is the total compressed block payload.
func (c *Compressed) PayloadBytes() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b)
	}
	return n
}

// ModelBytes is the Markov model's storage footprint (the decompressor's
// probability memory) — part of the stored image, per §3: "the final
// storage requirements are the encoded message and the Markov trees".
func (c *Compressed) ModelBytes() int { return (c.Model.StorageBits() + 7) / 8 }

// CompressedSize is payload plus model storage.
func (c *Compressed) CompressedSize() int { return c.PayloadBytes() + c.ModelBytes() }

// Ratio is compressed/original size — the paper's metric (short bar good).
func (c *Compressed) Ratio() float64 {
	if c.OrigSize == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(c.OrigSize)
}
