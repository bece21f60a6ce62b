// Package rans implements a block-addressable interleaved rANS (range
// asymmetric numeral system) codec over 4-bit symbols — the software
// analogue of the paper's Figure-5 nibble-parallel decompressor, and the
// "dense but fast" tier the access-pattern roadmap item calls for: SAMC's
// compression class at table-lookup decode speeds.
//
// Model. Instruction nibbles are coded with a semiadaptive (frozen at
// compress time) frequency model conditioned on (nibble position within the
// 4-byte instruction word, previous nibble): 8×16 = 128 contexts of 16
// symbols each, quantized to a power-of-two total so decode needs no
// division. This addresses Kozuch & Wolfe's weakness the paper points out —
// coding all four bytes of a RISC word with one table — at a table cost of
// ~2 KB per image instead of the 100+ KB a byte-level order-1 model would
// need.
//
// Interleaving. Each cache block is encoded independently (states and
// context reset at the boundary, so blocks decompress in isolation) with N
// interleaved rANS states: symbol j is carried by state j mod N, all states
// renormalize nibble-at-a-time into one shared bitstream. Because state
// j+1's arithmetic does not depend on state j's result, the decode loop
// keeps N independent dependency chains in flight per iteration — in
// hardware these are the paper's parallel nibble decoders; in software they
// give the superscalar core independent work between renorm refills.
//
// Renormalization invariants (checked by the reference decoder in tests):
//
//	M = L = 256 (8-bit frequencies), b = 16 (nibble renorm)
//	states live in [L, b·L) = [256, 4096) at every symbol boundary
//	encoder, before pushing symbol s with frequency f: while x ≥ 16·f,
//	  emit nibble x&15, x >>= 4   (post-push state lands back in [L, b·L))
//	decoder, after popping a symbol: while x < L, x = x<<4 | next nibble
//
// M = 256 keeps the slot → symbol decode table at 32 KB (128 contexts ×
// 256 slots × 1 byte) so it stays in L1 on the decode critical path; the
// quantization loss against a 10-bit model is under a point of ratio and
// is bought back by the narrower 12-bit state flush.
//
// A block's payload is its N final encoder states, 12 bits each, followed
// by the renorm nibbles in decode order, zero-padded to a byte boundary.
package rans

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"codecomp/internal/bitio"
)

const (
	scaleBits = 8              // log2 of the frequency-table total
	m         = 1 << scaleBits // quantized frequency total per context
	low       = m              // renormalization lower bound L
	stateBits = scaleBits + 4  // log2(b·L): bits to store one final state
	stateMax  = 1 << stateBits // exclusive upper bound b·L

	// A frequency can equal m itself (single-symbol context), so its field
	// is scaleBits+1 wide; the serialized model uses the same width.
	freqFieldBits = scaleBits + 1
	// fs entries pack freq<<freqShift | start.
	freqShift = 16
	numCtx    = 128 // (nibble position & 7) << 4 | previous nibble
	numSym    = 16  // nibble alphabet

	// DefaultBlockSize is the codec's native decode granularity. rANS pays
	// N·stateBits bits of state flush per block, so its blocks default to
	// 128 bytes — four 32-byte cache lines — to keep that overhead under 5%.
	DefaultBlockSize = 128
	// DefaultStreams is the default interleaving factor N.
	DefaultStreams = 4
)

// Options configures Compress.
type Options struct {
	// BlockSize is the decode granularity in bytes (0 → DefaultBlockSize).
	// Must be a multiple of 4 so the position context stays word-aligned.
	BlockSize int
	// Streams is the interleaving factor N (0 → DefaultStreams). Must be
	// 1, 2, 4 or 8.
	Streams int
}

// Compressed is an interleaved-rANS compressed image. Once built it is
// never mutated, so any number of goroutines may decompress blocks
// concurrently (the BlockCodec contract the serving layer relies on).
type Compressed struct {
	// Freq holds the quantized per-context nibble frequencies; each row
	// sums to exactly m. Cum is its exclusive prefix sum.
	Freq [numCtx][numSym]uint16
	Cum  [numCtx][numSym + 1]uint16
	// Blocks holds each block's serialized payload (states + nibbles).
	Blocks    [][]byte
	BlockSize int
	OrigSize  int
	// Streams is the interleaving factor N the image was encoded with.
	Streams int

	tables
}

// tables are the decode tables, built from Freq and Cum: sym maps
// ctx<<scaleBits | slot to the slot's symbol, and fs maps ctx<<4 | sym to
// freq<<freqShift | start. A symbol's context holds the previous symbol,
// so the sym lookup is the decode's serial chain; at a byte per slot
// that table is 32 KB and stays in L1. Fixed-size arrays let the masked
// indices in the decode loops drop their bounds checks.
type tables struct {
	sym *[numCtx << scaleBits]uint8
	fs  *[numCtx * numSym]uint32
}

func (o *Options) normalize() error {
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.Streams == 0 {
		o.Streams = DefaultStreams
	}
	if o.BlockSize < 4 || o.BlockSize > 1<<16-1 || o.BlockSize%4 != 0 {
		return fmt.Errorf("rans: block size %d not a multiple of 4 in [4,65535]", o.BlockSize)
	}
	switch o.Streams {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("rans: streams %d not in {1,2,4,8}", o.Streams)
	}
	return nil
}

// ctxOf is the model context of nibble j within a block, given the previous
// nibble (0 at a block start). j counts nibbles: 8 per instruction word.
func ctxOf(j int, prev uint32) uint32 {
	return uint32(j&7)<<4 | prev
}

// Compress builds the per-image frequency model and encodes every block
// with opts.Streams interleaved states.
func Compress(text []byte, opts Options) (*Compressed, error) {
	c, err := Train(text, opts)
	if err != nil {
		return nil, err
	}
	// Pass 2: encode each block back to front through the shared model.
	for off := 0; off < len(text); off += c.BlockSize {
		blk, err := c.EncodeBlock(text[off:min(off+c.BlockSize, len(text))])
		if err != nil {
			return nil, err // unreachable: Train counted every symbol
		}
		c.Blocks = append(c.Blocks, blk)
	}
	return c, nil
}

// Train runs Compress's first pass alone: it builds the frequency model
// and decode tables from the whole text and returns an image with no
// payloads. A caller that needs only some blocks coded (the tiering
// layer) fills Blocks through EncodeBlock, which codes any block of the
// text exactly as Compress would have.
func Train(text []byte, opts Options) (*Compressed, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	c := &Compressed{
		BlockSize: opts.BlockSize,
		OrigSize:  len(text),
		Streams:   opts.Streams,
	}

	// Pass 1: gather nibble counts per context, with the context chain
	// reset at every block boundary exactly as the decoder will see it.
	var counts [numCtx][numSym]uint64
	for off := 0; off < len(text); off += c.BlockSize {
		end := min(off+c.BlockSize, len(text))
		prev := uint32(0)
		for j, i := 0, off; i < end; i++ {
			hi, lo := uint32(text[i]>>4), uint32(text[i]&15)
			counts[ctxOf(j, prev)][hi]++
			prev = hi
			counts[ctxOf(j+1, prev)][lo]++
			prev = lo
			j += 2
		}
	}
	for ctx := range counts {
		quantize(&counts[ctx], &c.Freq[ctx])
	}
	c.buildCum()
	c.buildDecodeTable()
	return c, nil
}

// EncodeBlock rANS-codes one block's worth of bytes against the image's
// frozen frequency model — the Compress pass-2 kernel exposed for
// block-granular re-encoding (tier migration). It fails if the block
// contains a nibble whose frequency is zero in its (position, previous
// nibble) context — a symbol sequence the training text never produced in
// that position cannot be represented under the frozen model. len(block)
// must not exceed BlockSize.
//
// The nibbles are coded back to front straight from block, and the renorm
// nibbles they push (at most two each) go to stack scratch, so for blocks
// up to DefaultBlockSize the payload is the one allocation. The payload is
// a nibble stream: each final state is three nibbles.
func (c *Compressed) EncodeBlock(block []byte) ([]byte, error) {
	if len(block) > c.BlockSize {
		return nil, fmt.Errorf("rans: block length %d exceeds block size %d", len(block), c.BlockSize)
	}
	var scratch [4 * DefaultBlockSize]byte
	stack := scratch[:0] // renorm nibbles in emit (reverse) order
	mask := c.Streams - 1
	var states [8]uint32
	for k := 0; k < c.Streams; k++ {
		states[k] = low
	}
	for j := 2*len(block) - 1; j >= 0; j-- {
		nib, prev := nibble(block, j), uint32(0)
		if j > 0 {
			prev = nibble(block, j-1)
		}
		ctx := ctxOf(j, prev)
		f := uint32(c.Freq[ctx][nib])
		if f == 0 {
			return nil, fmt.Errorf("rans: nibble %x has zero frequency in context %d", nib, ctx)
		}
		x := states[j&mask]
		for x >= f<<4 {
			stack = append(stack, byte(x&15))
			x >>= 4
		}
		states[j&mask] = (x/f)<<scaleBits + uint32(c.Cum[ctx][nib]) + x%f
	}
	out := make([]byte, (stateBits/4*c.Streams+len(stack)+1)/2)
	p := 0
	put := func(nib uint32) {
		out[p>>1] |= byte(nib) << (4 - 4*(p&1))
		p++
	}
	for k := 0; k < c.Streams; k++ {
		for sh := stateBits - 4; sh >= 0; sh -= 4 {
			put(states[k] >> sh & 15)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		put(uint32(stack[i]))
	}
	return out, nil
}

// nibble returns nibble j of block, high nibble of each byte first.
func nibble(block []byte, j int) uint32 {
	return uint32(block[j>>1]>>(4-4*(j&1))) & 15
}

// quantize scales one context's raw counts to integer frequencies summing
// exactly to m, giving every present symbol at least 1. Contexts that never
// occur get a uniform table so a decoder over corrupt (but CRC-passing)
// input still has a total-m table to walk.
func quantize(counts *[numSym]uint64, freq *[numSym]uint16) {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		for s := range freq {
			freq[s] = m / numSym
		}
		return
	}
	sum := 0
	for s, n := range counts {
		if n == 0 {
			freq[s] = 0
			continue
		}
		q := int(n * m / total)
		if q == 0 {
			q = 1
		}
		freq[s] = uint16(q)
		sum += q
	}
	// Largest-remainder style fixup: push the difference onto the most
	// frequent symbols, never dropping a present symbol below 1.
	for sum != m {
		best, bestN := -1, uint64(0)
		for s, n := range counts {
			if n == 0 {
				continue
			}
			if sum < m {
				if n > bestN {
					best, bestN = s, n
				}
			} else if freq[s] > 1 && n > bestN {
				best, bestN = s, n
			}
		}
		if best < 0 { // sum > m but everything is already at 1: impossible
			panic("rans: quantize cannot reach total")
		}
		if sum < m {
			d := m - sum
			freq[best] += uint16(d)
			sum += d
		} else {
			d := sum - m
			if int(freq[best])-1 < d {
				d = int(freq[best]) - 1
			}
			freq[best] -= uint16(d)
			sum -= d
		}
	}
}

func (c *Compressed) buildCum() {
	for ctx := range c.Freq {
		acc := uint16(0)
		for s, f := range c.Freq[ctx] {
			c.Cum[ctx][s] = acc
			acc += f
		}
		c.Cum[ctx][numSym] = acc
	}
}

// buildDecodeTable expands the frequency model into the tables the fast
// decode loop indexes: the symbol of each (context, slot in [0,m)), and
// the frequency and start of each (context, symbol).
func (c *Compressed) buildDecodeTable() {
	c.sym = new([numCtx << scaleBits]uint8)
	c.fs = new([numCtx * numSym]uint32)
	for ctx := range c.Freq {
		base := ctx << scaleBits
		for s := 0; s < numSym; s++ {
			f, start := uint32(c.Freq[ctx][s]), uint32(c.Cum[ctx][s])
			c.fs[ctx*numSym+s] = f<<freqShift | start
			for slot := start; slot < start+f; slot++ {
				c.sym[base+int(slot)] = uint8(s)
			}
		}
	}
}

// validate checks the invariants Unmarshal relies on before trusting a
// parsed model, and rebuilds the derived tables.
func (c *Compressed) validate() error {
	if c.BlockSize < 4 || c.BlockSize > 1<<16-1 || c.BlockSize%4 != 0 {
		return fmt.Errorf("rans: block size %d not a multiple of 4 in [4,65535]", c.BlockSize)
	}
	switch c.Streams {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("rans: streams %d not in {1,2,4,8}", c.Streams)
	}
	for ctx := range c.Freq {
		sum := 0
		for _, f := range c.Freq[ctx] {
			sum += int(f)
		}
		if sum != m {
			return fmt.Errorf("rans: context %d frequencies sum to %d, want %d", ctx, sum, m)
		}
	}
	want := 0
	if c.OrigSize > 0 {
		want = (c.OrigSize + c.BlockSize - 1) / c.BlockSize
	}
	if len(c.Blocks) != want {
		return fmt.Errorf("rans: %d blocks for %d bytes at block size %d, want %d",
			len(c.Blocks), c.OrigSize, c.BlockSize, want)
	}
	c.buildCum()
	c.buildDecodeTable()
	return nil
}

// NumBlocks returns the block count.
func (c *Compressed) NumBlocks() int { return len(c.Blocks) }

// blockOrigLen is block i's uncompressed byte count (the last block may be
// short).
func (c *Compressed) blockOrigLen(i int) int {
	n := c.BlockSize
	if (i+1)*c.BlockSize > c.OrigSize {
		n = c.OrigSize - i*c.BlockSize
	}
	return n
}

// Block decompresses one block into a fresh buffer.
func (c *Compressed) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("rans: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.AppendBlock(make([]byte, 0, c.blockOrigLen(i)), i)
}

// AppendBlock decompresses block i and appends its bytes to dst: the fused
// fast path for every interleaving factor N. A manually managed 64-bit bit
// reservoir (the inlined form of bitio.Reader's refill buffer), the flat
// decode tables and the states held in registers make a decode allocate
// nothing beyond dst's growth. Symbols are decoded a four-symbol rotation
// (two output bytes) at a time: symbol j is carried by state j mod N, so
// N=1 chains all four through one state (rotate1), N=2 alternates two
// (rotate2), N=4 gives each its own and N=8 alternates two banks of four
// (rotate4). One reservoir check covers a rotation and renormalization is
// branch-free; once the stream can no longer guarantee a whole rotation,
// a guarded tail loop finishes, or faults, symbol by symbol.
func (c *Compressed) AppendBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("rans: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	t := c.tables
	if t.sym == nil || t.fs == nil {
		return nil, fmt.Errorf("rans: decode table not built")
	}
	r := reservoir{data: c.Blocks[i]}
	var s [8]uint32
	for k := 0; k < c.Streams; k++ {
		if r.nbits < stateBits {
			if r = r.refill(); r.nbits < stateBits {
				return nil, fmt.Errorf("rans: block %d truncated before state %d", i, k)
			}
		}
		s[k] = uint32(r.bitbuf >> (64 - stateBits))
		r.bitbuf <<= stateBits
		r.nbits -= stateBits
		if s[k] < low {
			return nil, fmt.Errorf("rans: block %d state %d = %d below renorm bound", i, k, s[k])
		}
	}
	total := 2 * c.blockOrigLen(i)
	var j int
	var prev uint32
	switch c.Streams {
	case 1:
		dst, r, j, prev = t.rotate1(dst, r, &s, total)
	case 2:
		dst, r, j, prev = t.rotate2(dst, r, &s, total)
	default:
		dst, r, j, prev = t.rotate4(dst, r, &s, total, c.Streams == 8)
	}
	// Tail: the last rotations once the reservoir can't guarantee 32 bits,
	// plus the odd byte (two nibbles) a short last block can leave over.
	mask := c.Streams - 1
	var out uint32
	for ; j < total; j++ {
		x := s[j&mask]
		slot := x & (m - 1)
		row := uint32(j&7)<<stateBits | prev<<scaleBits
		sy := uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f := t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(x>>scaleBits) + slot - f&(1<<freqShift-1)
		if x < low {
			if r.nbits < 12 {
				r = r.refill()
			}
			need := ((stateBits - uint(bits.Len32(x))) >> 2) << 2
			if r.nbits < need {
				return nil, fmt.Errorf("rans: block %d truncated at symbol %d", i, j)
			}
			x = x<<need | uint32(r.bitbuf>>(64-need))
			r.bitbuf <<= need
			r.nbits -= need
		}
		s[j&mask] = x
		prev = sy
		out = out<<4 | sy
		if j&1 == 1 {
			dst = append(dst, byte(out))
			out = 0
		}
	}
	return dst, nil
}

// The rotate functions decode whole four-symbol rotations of a block
// from symbol 0 until fewer than four symbols remain of total or the
// reservoir can no longer guarantee the 32 bits a rotation may take (a
// decoded state is ≥ 1, so a renorm takes at most stateBits−4 = 8 bits).
// They return dst, the reservoir, the next symbol index and the last
// symbol, and leave the states in s for the tail loop. Each symbol is
// the same straight-line step: look the slot up in its context's row
// (ps is the previous symbol in the row's context field), pop the state,
// and renormalize branch-free from the top of the reservoir, where a
// state already in [L, b·L) takes zero bits; need is 0, 4 or 8, so the
// shift-count masks change no value but let the compiler drop Go's
// oversize-shift handling. One function per state shape keeps each
// shape's states in registers, apart from the others'. One loop shared
// by every shape, or the step as an inlined helper, measured a few
// percent slower at N=4 on a 2-vCPU x86-64 machine.

// rotate1 decodes the rotations of a single-state (N=1) block.
func (t tables) rotate1(dst []byte, r reservoir, s *[8]uint32, total int) ([]byte, reservoir, int, uint32) {
	data, idx, bitbuf, nbits := r.data, r.idx, r.bitbuf, r.nbits
	s0 := s[0]
	ps := uint32(0)
	j := 0
	for ; j+4 <= total; j += 4 {
		if nbits < 32 {
			if bitbuf, nbits, idx = refill(data, bitbuf, nbits, idx); nbits < 32 {
				break
			}
		}
		pos := uint32(j & 7) // 0 or 4: hi nibble of an even or odd word half

		slot := s0 & (m - 1)
		row := pos<<stateBits | ps
		sy := uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f := t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x := (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need := ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi := sy << 4

		slot = s0 & (m - 1)
		row = (pos+1)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi |= sy

		slot = s0 & (m - 1)
		row = (pos+2)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo := sy << 4

		slot = s0 & (m - 1)
		row = (pos+3)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo |= sy

		dst = append(dst, byte(hi), byte(lo))
	}
	s[0] = s0
	return dst, reservoir{data, idx, bitbuf, nbits}, j, ps >> scaleBits
}

// rotate2 decodes the rotations of an N=2 block.
func (t tables) rotate2(dst []byte, r reservoir, s *[8]uint32, total int) ([]byte, reservoir, int, uint32) {
	data, idx, bitbuf, nbits := r.data, r.idx, r.bitbuf, r.nbits
	s0, s1 := s[0], s[1]
	ps := uint32(0)
	j := 0
	for ; j+4 <= total; j += 4 {
		if nbits < 32 {
			if bitbuf, nbits, idx = refill(data, bitbuf, nbits, idx); nbits < 32 {
				break
			}
		}
		pos := uint32(j & 7) // 0 or 4: hi nibble of an even or odd word half

		slot := s0 & (m - 1)
		row := pos<<stateBits | ps
		sy := uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f := t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x := (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need := ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi := sy << 4

		slot = s1 & (m - 1)
		row = (pos+1)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s1>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s1 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi |= sy

		slot = s0 & (m - 1)
		row = (pos+2)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo := sy << 4

		slot = s1 & (m - 1)
		row = (pos+3)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s1>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s1 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo |= sy

		dst = append(dst, byte(hi), byte(lo))
	}
	s[0], s[1] = s0, s1
	return dst, reservoir{data, idx, bitbuf, nbits}, j, ps >> scaleBits
}

// rotate4 decodes the rotations of an N=4 block, or of an N=8 block
// (eight), which swaps its bank of four states with the idle bank in
// s[4:8] after every rotation.
func (t tables) rotate4(dst []byte, r reservoir, s *[8]uint32, total int, eight bool) ([]byte, reservoir, int, uint32) {
	data, idx, bitbuf, nbits := r.data, r.idx, r.bitbuf, r.nbits
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	ps := uint32(0)
	j := 0
	for ; j+4 <= total; j += 4 {
		if nbits < 32 {
			if bitbuf, nbits, idx = refill(data, bitbuf, nbits, idx); nbits < 32 {
				break
			}
		}
		pos := uint32(j & 7) // 0 or 4: hi nibble of an even or odd word half

		slot := s0 & (m - 1)
		row := pos<<stateBits | ps
		sy := uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f := t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x := (f>>freqShift)*(s0>>scaleBits) + slot - f&(1<<freqShift-1)
		need := ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s0 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi := sy << 4

		slot = s1 & (m - 1)
		row = (pos+1)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s1>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s1 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		hi |= sy

		slot = s2 & (m - 1)
		row = (pos+2)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s2>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s2 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo := sy << 4

		slot = s3 & (m - 1)
		row = (pos+3)<<stateBits | ps
		sy = uint32(t.sym[(row|slot)&(numCtx<<scaleBits-1)])
		f = t.fs[(row>>4|sy)&(numCtx*numSym-1)]
		x = (f>>freqShift)*(s3>>scaleBits) + slot - f&(1<<freqShift-1)
		need = ((stateBits - uint(bits.Len32(x))) >> 2) << 2
		s3 = x<<(need&31) | uint32(bitbuf>>32>>((32-need)&63))
		bitbuf <<= need & 63
		nbits -= need
		ps = sy << scaleBits
		lo |= sy

		if eight {
			s0, s1, s2, s3, s[4], s[5], s[6], s[7] = s[4], s[5], s[6], s[7], s0, s1, s2, s3
		}
		dst = append(dst, byte(hi), byte(lo))
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	if eight && j&4 != 0 { // an odd number of swaps: undo the last
		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s[4], s[5], s[6], s[7], s0, s1, s2, s3
	}
	return dst, reservoir{data, idx, bitbuf, nbits}, j, ps >> scaleBits
}

// reservoir is a block payload being read: bitbuf holds, left-aligned,
// the nbits unconsumed bits that precede data[idx:].
type reservoir struct {
	data   []byte
	idx    int
	bitbuf uint64
	nbits  uint
}

func (r reservoir) refill() reservoir {
	r.bitbuf, r.nbits, r.idx = refill(r.data, r.bitbuf, r.nbits, r.idx)
	return r
}

// refill tops a reservoir up from data[idx:]: whole words while at
// least 32 bits are free, then bytes while at least 8 are.
func refill(data []byte, bitbuf uint64, nbits uint, idx int) (uint64, uint, int) {
	for nbits <= 32 && idx+4 <= len(data) {
		bitbuf |= uint64(binary.BigEndian.Uint32(data[idx:])) << (32 - nbits)
		nbits += 32
		idx += 4
	}
	for nbits <= 56 && idx < len(data) {
		bitbuf |= uint64(data[idx]) << (56 - nbits)
		nbits += 8
		idx++
	}
	return bitbuf, nbits, idx
}

// blockReference is the scalar reference decoder: one state advanced at a
// time with the frequency and cumulative tables walked directly, no flat
// slot table. It is the differential oracle for the interleaved fast path
// (TestInterleavedMatchesReference) and the benchmark baseline.
func (c *Compressed) blockReference(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("rans: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	rd := bitio.NewReader(c.Blocks[i])
	states := make([]uint32, c.Streams)
	for k := range states {
		v, err := rd.ReadBits(stateBits)
		if err != nil {
			return nil, fmt.Errorf("rans: block %d truncated before state %d", i, k)
		}
		if v < low {
			return nil, fmt.Errorf("rans: block %d state %d = %d below renorm bound", i, k, v)
		}
		states[k] = uint32(v)
	}
	out := make([]byte, 0, c.blockOrigLen(i))
	prev := uint32(0)
	for j := 0; j < 2*c.blockOrigLen(i); j++ {
		ctx := ctxOf(j, prev)
		x := states[j%c.Streams]
		slot := uint16(x & (m - 1))
		// Linear CDF walk: the readable inverse of the encoder's push.
		sym := 0
		for !(c.Cum[ctx][sym] <= slot && slot < c.Cum[ctx][sym+1]) {
			sym++
		}
		x = uint32(c.Freq[ctx][sym])*(x>>scaleBits) + uint32(slot) - uint32(c.Cum[ctx][sym])
		for x < low {
			nib, err := rd.ReadBits(4)
			if err != nil {
				return nil, fmt.Errorf("rans: block %d truncated at symbol %d", i, j)
			}
			x = x<<4 | uint32(nib)
		}
		states[j%c.Streams] = x
		prev = uint32(sym)
		if j&1 == 0 {
			out = append(out, byte(sym<<4))
		} else {
			out[len(out)-1] |= byte(sym)
		}
	}
	return out, nil
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

// PayloadBytes is the total encoded block payload (states + renorm
// streams).
func (c *Compressed) PayloadBytes() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b)
	}
	return n
}

// TableBytes is the stored frequency model: 15 explicit (scaleBits+1)-bit
// per context (the 16th is implied by the fixed total).
func (c *Compressed) TableBytes() int { return (numCtx*(numSym-1)*freqFieldBits + 7) / 8 }

// CompressedSize is payload plus model, the same accounting as the other
// block codecs (the per-block offset table is the memory organization's
// LAT and is excluded, as in the paper).
func (c *Compressed) CompressedSize() int { return c.PayloadBytes() + c.TableBytes() }

// Ratio is compressed/original size.
func (c *Compressed) Ratio() float64 {
	if c.OrigSize == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(c.OrigSize)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
