// Package huffman implements canonical, length-limited Huffman coding over
// arbitrary integer alphabets.
//
// It is the entropy-coding substrate for the SADC stream coder (§4 of the
// paper encodes all compressed streams with Huffman codes), for the Kozuch &
// Wolfe byte-Huffman baseline, and for the gzip-class DEFLATE baseline.
// Codes are canonical so only the code lengths need to be stored alongside
// the compressed data; decoding is table-free and uses the canonical
// first-code recurrence.
package huffman

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"codecomp/internal/bitio"
)

// MaxBits is the default maximum code length. 15 matches DEFLATE and keeps
// decoder state small, which matters for a hardware table decoder.
const MaxBits = 15

// lutBits is the first-level lookup width of the table decoder: one peek of
// lutBits resolves every code up to that length in a single table hit,
// spilling to the canonical walk for longer codes. 10 bits covers the vast
// majority of symbols of a skewed code (the frequent ones are short) while
// keeping the table at 1<<10 entries — the same first-level/overflow split
// flate and zstd decoders use.
const lutBits = 10

// Sentinel decode errors. They carry no position so the hot decode loops
// never touch fmt; callers that want context wrap them at the boundary
// (e.g. "sadc: token 3 of block 7: %w").
var (
	// ErrInvalidCode marks a bit pattern outside the canonical code space.
	ErrInvalidCode = errors.New("huffman: invalid code")
	// ErrCodeTooLong marks a prefix that is no codeword even at the table's
	// maximum code length.
	ErrCodeTooLong = errors.New("huffman: code longer than max length")
)

// Code describes the canonical codeword assigned to one symbol.
type Code struct {
	Bits uint32 // codeword, right-aligned
	Len  uint8  // length in bits; 0 means the symbol does not occur
}

// Table holds a canonical Huffman code for an alphabet of n symbols.
type Table struct {
	Codes []Code
	// decoding acceleration: for each length l, firstCode[l] is the first
	// canonical codeword of that length and firstSym[l] the index into syms
	// of its symbol.
	firstCode [MaxBits + 2]uint32
	firstSym  [MaxBits + 2]int32
	syms      []int32 // symbols sorted by (len, symbol)
	maxLen    uint8

	// First-level lookup table: lut[next tableBits of the stream] packs
	// symbol<<8 | codeLen for every code of length ≤ tableBits (all
	// entries sharing that prefix point at the same symbol). A zero entry
	// means the prefix either extends into a longer code or is invalid;
	// both spill to the canonical walk.
	tableBits uint8
	lut       []uint32
}

type hNode struct {
	freq        uint64
	sym         int32 // -1 for internal
	left, right int32 // indices into node pool
}

type hHeap struct {
	nodes []hNode
	order []int32
}

func (h *hHeap) Len() int { return len(h.order) }
func (h *hHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.sym < b.sym // deterministic tie-break
}
func (h *hHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *hHeap) Push(x any)    { h.order = append(h.order, x.(int32)) }
func (h *hHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}

// Lengths computes length-limited Huffman code lengths for the given symbol
// frequencies. Symbols with zero frequency get length 0. maxBits must be at
// least ceil(log2(#nonzero symbols)).
func Lengths(freq []uint64, maxBits uint8) ([]uint8, error) {
	n := len(freq)
	lens := make([]uint8, n)
	nonzero := 0
	last := -1
	for i, f := range freq {
		if f > 0 {
			nonzero++
			last = i
		}
	}
	switch nonzero {
	case 0:
		return lens, nil
	case 1:
		lens[last] = 1
		return lens, nil
	}
	if need := ceilLog2(nonzero); int(maxBits) < need {
		return nil, fmt.Errorf("huffman: maxBits %d too small for %d symbols", maxBits, nonzero)
	}

	h := &hHeap{nodes: make([]hNode, 0, 2*nonzero)}
	for i, f := range freq {
		if f > 0 {
			h.nodes = append(h.nodes, hNode{freq: f, sym: int32(i), left: -1, right: -1})
			h.order = append(h.order, int32(len(h.nodes)-1))
		}
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int32)
		b := heap.Pop(h).(int32)
		h.nodes = append(h.nodes, hNode{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  -1, left: a, right: b,
		})
		heap.Push(h, int32(len(h.nodes)-1))
	}
	root := h.order[0]

	// Depth-first traversal to assign raw lengths.
	type frame struct {
		node  int32
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[f.node]
		if nd.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lens[nd.sym] = d
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}

	limitLengths(lens, maxBits)
	return lens, nil
}

// limitLengths enforces the maxBits cap using the standard Kraft-sum repair:
// overlong codes are clamped, then the length multiset is adjusted until the
// Kraft inequality holds with equality.
func limitLengths(lens []uint8, maxBits uint8) {
	var over bool
	for _, l := range lens {
		if l > maxBits {
			over = true
			break
		}
	}
	if !over {
		return
	}
	count := make([]int, maxBits+1)
	for i, l := range lens {
		if l == 0 {
			continue
		}
		if l > maxBits {
			lens[i] = maxBits
		}
		count[lens[i]]++
	}
	// Kraft sum measured in units of 2^-maxBits.
	total := uint64(0)
	for l := uint8(1); l <= maxBits; l++ {
		total += uint64(count[l]) << (maxBits - l)
	}
	limit := uint64(1) << maxBits
	for total > limit {
		// Find a code at the deepest overfull level and demote one code from
		// the shallowest level that has spare capacity, zlib-style: take one
		// codeword of length maxBits and pair it with a promoted shorter one.
		l := maxBits - 1
		for count[l] == 0 {
			l--
		}
		count[l]--
		count[l+1] += 2
		count[maxBits]--
		total -= 1 // net effect: one leaf moved deeper by one level
		// Recompute exactly to avoid drift (cheap: maxBits iterations).
		total = 0
		for k := uint8(1); k <= maxBits; k++ {
			total += uint64(count[k]) << (maxBits - k)
		}
	}
	// Reassign lengths canonically: sort symbols by (old length, symbol) and
	// dole out the adjusted length counts shortest-first to the most frequent
	// (shortest-old-length) symbols.
	type symLen struct {
		sym int32
		l   uint8
	}
	var syms []symLen
	for i, l := range lens {
		if l > 0 {
			syms = append(syms, symLen{int32(i), l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].sym < syms[j].sym
	})
	idx := 0
	for l := uint8(1); l <= maxBits; l++ {
		for k := 0; k < count[l]; k++ {
			lens[syms[idx].sym] = l
			idx++
		}
	}
}

// New builds a canonical table from per-symbol code lengths.
func New(lens []uint8) (*Table, error) {
	t := &Table{Codes: make([]Code, len(lens))}
	var count [MaxBits + 2]int32
	for i, l := range lens {
		if l > MaxBits {
			return nil, fmt.Errorf("huffman: symbol %d length %d exceeds max %d", i, l, MaxBits)
		}
		if l > 0 {
			count[l]++
			if l > t.maxLen {
				t.maxLen = l
			}
		}
	}
	// Kraft check.
	var kraft uint64
	for l := uint8(1); l <= MaxBits; l++ {
		kraft += uint64(count[l]) << (MaxBits - l)
	}
	if kraft > 1<<MaxBits {
		return nil, fmt.Errorf("huffman: over-subscribed code (kraft %d)", kraft)
	}
	// Canonical first codes.
	var code uint32
	var symBase int32
	for l := uint8(1); l <= t.maxLen; l++ {
		code <<= 1
		t.firstCode[l] = code
		t.firstSym[l] = symBase
		code += uint32(count[l])
		symBase += count[l]
	}
	// Symbols sorted by (len, symbol).
	t.syms = make([]int32, 0, symBase)
	for l := uint8(1); l <= t.maxLen; l++ {
		for i, ln := range lens {
			if ln == l {
				t.syms = append(t.syms, int32(i))
			}
		}
	}
	// Assign per-symbol codes.
	next := t.firstCode
	for _, s := range t.syms {
		l := lens[s]
		t.Codes[s] = Code{Bits: next[l], Len: l}
		next[l]++
	}
	t.buildLUT()
	return t, nil
}

// buildLUT fills the first-level decode table: every code of length
// l ≤ tableBits owns the 2^(tableBits-l) entries sharing its prefix.
func (t *Table) buildLUT() {
	t.tableBits = t.maxLen
	if t.tableBits > lutBits {
		t.tableBits = lutBits
	}
	t.lut = make([]uint32, 1<<t.tableBits)
	for sym, c := range t.Codes {
		if c.Len == 0 || c.Len > t.tableBits {
			continue
		}
		base := c.Bits << (t.tableBits - c.Len)
		span := uint32(1) << (t.tableBits - c.Len)
		e := uint32(sym)<<8 | uint32(c.Len)
		for i := uint32(0); i < span; i++ {
			t.lut[base+i] = e
		}
	}
}

// Build computes lengths from frequencies and constructs the table.
func Build(freq []uint64, maxBits uint8) (*Table, error) {
	lens, err := Lengths(freq, maxBits)
	if err != nil {
		return nil, err
	}
	return New(lens)
}

// Encode appends the codeword for sym to w.
func (t *Table) Encode(w *bitio.Writer, sym int) error {
	if sym < 0 || sym >= len(t.Codes) {
		return fmt.Errorf("huffman: symbol %d out of range [0,%d)", sym, len(t.Codes))
	}
	c := t.Codes[sym]
	if c.Len == 0 {
		return fmt.Errorf("huffman: symbol %d has no code", sym)
	}
	w.WriteBits(uint64(c.Bits), uint(c.Len))
	return nil
}

// Decode consumes one codeword from r and returns its symbol.
func (t *Table) Decode(r *bitio.Reader) (int, error) {
	var code uint32
	for l := uint8(1); l <= t.maxLen; l++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(bit)
		// Codes of length l occupy [firstCode[l], firstCode[l]+count).
		// firstCode of the next populated length, shifted, bounds them.
		next := t.boundAt(l)
		if code < next {
			if code < t.firstCode[l] {
				return 0, ErrInvalidCode
			}
			return int(t.syms[t.firstSym[l]+int32(code-t.firstCode[l])]), nil
		}
	}
	return 0, ErrCodeTooLong
}

// DecodeFast consumes one codeword from r via the first-level lookup table,
// spilling to the canonical walk for codes longer than tableBits. It returns
// exactly the same (symbol, error) and leaves r at exactly the same bit
// position as Decode on every stream, valid or not.
func (t *Table) DecodeFast(r *bitio.Reader) (int, error) {
	if e := t.lut[r.PeekBits(uint(t.tableBits))]; e != 0 {
		// PeekBits zero-pads past the end of the stream, so a truncated code
		// can still hit a table entry; Consume reports the EOF a bit-serial
		// decode would have returned.
		if err := r.Consume(uint(e & 0xff)); err != nil {
			return 0, err
		}
		return int(e >> 8), nil
	}
	return t.decodeSpill(r)
}

// decodeSpill resolves codes the first-level table cannot: codes longer than
// tableBits, invalid prefixes, and truncated streams. It repeats the
// canonical walk of Decode over a single peek so every outcome — symbol,
// ErrInvalidCode, ErrCodeTooLong, or EOF via Consume — consumes exactly the
// bits the bit-serial path would have.
func (t *Table) decodeSpill(r *bitio.Reader) (int, error) {
	sym, n, err := t.walk(uint32(r.PeekBits(uint(t.maxLen))))
	if cerr := r.Consume(n); cerr != nil {
		return 0, cerr
	}
	return sym, err
}

// walk is the canonical walk over the next maxLen bits of a stream,
// right-aligned and zero-padded past its end. It returns the symbol, or
// ErrInvalidCode or ErrCodeTooLong, and the number of bits the bit-serial
// Decode would have consumed to reach that outcome; a caller with fewer
// bits left reports EOF instead.
func (t *Table) walk(peeked uint32) (sym int, n uint, err error) {
	for l := uint8(1); l <= t.maxLen; l++ {
		code := peeked >> (t.maxLen - l)
		if code < t.boundAt(l) {
			if code < t.firstCode[l] {
				return 0, uint(l), ErrInvalidCode
			}
			return int(t.syms[t.firstSym[l]+int32(code-t.firstCode[l])]), uint(l), nil
		}
	}
	return 0, uint(t.maxLen), ErrCodeTooLong
}

// AppendSymbols decodes n ≥ 0 symbols from the start of src and appends
// each, as a byte, to dst: the block decode of a byte alphabet (a symbol
// above 255 keeps only its low byte). It returns exactly the symbols and
// the first error that n DecodeFast calls on a fresh reader over src
// would return, with the symbols decoded before an error appended. The
// fused loop keeps the stream in a local 64-bit reservoir and resolves a
// first-level table hit inline; codes longer than tableBits, invalid
// prefixes and truncation go through walk, the canonical walk of
// DecodeFast's spill.
func (t *Table) AppendSymbols(dst, src []byte, n int) ([]byte, error) {
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	lut, tb, maxLen := t.lut, uint(t.tableBits), uint(t.maxLen)
	mask := uint64(len(lut) - 1)
	// bitbuf holds the next nbits bits of src left-aligned; the bits below
	// them are src's following bits or, past its end, zero, so a peek
	// near the end zero-pads as PeekBits does.
	var bitbuf uint64
	var nbits uint
	idx := 0
	k := 0
	// Three symbols per word refill: a refill leaves at least 56 bits and
	// a code is at most MaxBits = 15 long.
	for ; k+3 <= n && idx+8 <= len(src); k += 3 {
		bitbuf |= binary.BigEndian.Uint64(src[idx:]) >> nbits
		idx += int(63-nbits) >> 3
		nbits |= 56
		for j := k; j < k+3; j++ {
			var sym int
			var l uint
			if e := lut[bitbuf>>(64-tb)&mask]; e != 0 {
				sym, l = int(e>>8), uint(e&0xff)
			} else {
				var err error
				if sym, l, err = t.walk(uint32(bitbuf >> (64 - maxLen))); err != nil {
					return dst[:len(dst)+j], err
				}
			}
			bitbuf <<= l
			nbits -= l
			out[j] = byte(sym)
		}
	}
	for ; k < n; k++ {
		if nbits < MaxBits {
			for ; nbits <= 56 && idx < len(src); idx++ {
				bitbuf |= uint64(src[idx]) << (56 - nbits)
				nbits += 8
			}
		}
		var sym int
		var l uint
		if e := lut[bitbuf>>(64-tb)&mask]; e != 0 {
			sym, l = int(e>>8), uint(e&0xff)
		} else {
			var err error
			sym, l, err = t.walk(uint32(bitbuf >> (64 - maxLen)))
			if err != nil && l <= nbits {
				return dst[:len(dst)+k], err
			}
		}
		if l > nbits {
			return dst[:len(dst)+k], bitio.ErrUnexpectedEOF
		}
		bitbuf <<= l
		nbits -= l
		out[k] = byte(sym)
	}
	return dst[:len(dst)+n], nil
}

// boundAt returns one past the last valid codeword of length l.
func (t *Table) boundAt(l uint8) uint32 {
	var n uint32
	if l < t.maxLen {
		// firstCode[l+1] = (firstCode[l]+count[l]) << 1
		n = t.firstCode[l+1] >> 1
	} else {
		n = t.firstCode[l] + uint32(int32(len(t.syms))-t.firstSym[l])
	}
	return n
}

// BitLen returns the encoded length in bits of symbol sym, or 0 if absent.
func (t *Table) BitLen(sym int) int {
	if sym < 0 || sym >= len(t.Codes) {
		return 0
	}
	return int(t.Codes[sym].Len)
}

// NumSymbols returns the alphabet size the table was built over.
func (t *Table) NumSymbols() int { return len(t.Codes) }

// MaxLen returns the longest code length in use.
func (t *Table) MaxLen() uint8 { return t.maxLen }

// WriteLengths serializes the code lengths (4 bits per symbol when all fit
// in 15, which they do by construction) so a decoder can rebuild the table.
// The alphabet size itself is context the caller must carry.
func (t *Table) WriteLengths(w *bitio.Writer) {
	for _, c := range t.Codes {
		w.WriteBits(uint64(c.Len), 4)
	}
}

// ReadLengths reads n 4-bit code lengths and rebuilds a canonical table.
func ReadLengths(r *bitio.Reader, n int) (*Table, error) {
	lens := make([]uint8, n)
	for i := range lens {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, err
		}
		lens[i] = uint8(v)
	}
	return New(lens)
}

// TableBits returns the serialized table size in bits (4 bits per symbol).
func (t *Table) TableBits() int { return 4 * len(t.Codes) }

// EncodedBits returns the total encoded size in bits of a message with the
// given symbol frequencies under this table, ignoring symbols with no code.
func (t *Table) EncodedBits(freq []uint64) uint64 {
	var total uint64
	for s, f := range freq {
		if s < len(t.Codes) {
			total += f * uint64(t.Codes[s].Len)
		}
	}
	return total
}

func ceilLog2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
