package sadc

import (
	"fmt"
	"sort"
	"sync"

	"codecomp/internal/bitio"
	"codecomp/internal/huffman"
)

// Options configures SADC compression.
type Options struct {
	// BlockSize is the cache-block granularity in bytes (default 32).
	BlockSize int
	// MaxEntries caps the dictionary (paper: 256, one-byte tokens).
	MaxEntries int
	// MaxItems caps how many instructions one entry may cover, bounding
	// parse cost (the paper scans pairs and triples, but groups grow as
	// pairs of pairs over cycles).
	MaxItems int
	// MaxCycles is a safety cap on generator iterations.
	MaxCycles int
}

func (o Options) withDefaults() Options {
	if o.BlockSize == 0 {
		o.BlockSize = 32
	}
	if o.MaxEntries == 0 {
		o.MaxEntries = 256
	}
	if o.MaxItems == 0 {
		o.MaxItems = 16
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 1024
	}
	return o
}

// Block is one compressed cache block: a Huffman-coded segment per stream.
type Block struct {
	Seg    [4][]byte // token, regs, imm, limm segments
	Tokens int       // tokens to decode
	Bytes  int       // original (uncompressed) byte count
}

// Compressed is a SADC-compressed program image.
type Compressed struct {
	Dict      []Entry
	Tables    [4]*huffman.Table
	Blocks    []Block
	BlockSize int
	OrigSize  int
	adapter   Adapter
}

// packBlocks groups units into cache blocks of at least blockSize original
// bytes (exactly blockSize for fixed 4-byte words; x86 blocks end at the
// first instruction boundary at or beyond the block size, since a variable
// length instruction cannot straddle a decompression boundary).
func packBlocks(units []Unit, blockSize int) [][]Unit {
	var blocks [][]Unit
	start, size := 0, 0
	for i := range units {
		size += units[i].Size
		if size >= blockSize {
			blocks = append(blocks, units[start:i+1])
			start, size = i+1, 0
		}
	}
	if start < len(units) {
		blocks = append(blocks, units[start:])
	}
	return blocks
}

// generator state for the iterative dictionary construction.
type generator struct {
	opts   Options
	blocks [][]Unit
	dict   []Entry
	// byFirst indexes entry ids by their first opcode, longest first, so
	// greedy parsing tries the longest candidate early.
	byFirst map[uint16][]int
}

func newGenerator(blocks [][]Unit, opts Options) *generator {
	g := &generator{opts: opts, blocks: blocks, byFirst: make(map[uint16][]int)}
	// Paper step 2: all single opcodes enter the dictionary first.
	seen := map[uint16]bool{}
	for _, blk := range blocks {
		for i := range blk {
			if !seen[blk[i].Op] {
				seen[blk[i].Op] = true
				g.addEntry(Entry{Items: []Item{{Op: blk[i].Op}}})
			}
		}
	}
	return g
}

func (g *generator) addEntry(e Entry) int {
	id := len(g.dict)
	g.dict = append(g.dict, e)
	op := e.Items[0].Op
	ids := append(g.byFirst[op], id)
	// Greedy parsing must try the most specific entry first: more items,
	// then more fused bytes (so "jr r31" beats plain "jr"), then age.
	specificity := func(id int) (int, int) {
		e := &g.dict[id]
		fusedBytes := 0
		for i := range e.Items {
			fusedBytes += len(e.Items[i].Regs) + len(e.Items[i].Imm) + len(e.Items[i].Limm)
		}
		return len(e.Items), fusedBytes
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ia, fa := specificity(ids[a])
		ib, fb := specificity(ids[b])
		if ia != ib {
			return ia > ib
		}
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	g.byFirst[op] = ids
	return id
}

func (g *generator) removeLastEntry() {
	id := len(g.dict) - 1
	op := g.dict[id].Items[0].Op
	ids := g.byFirst[op][:0]
	for _, e := range g.byFirst[op] {
		if e != id {
			ids = append(ids, e)
		}
	}
	g.byFirst[op] = ids
	g.dict = g.dict[:id]
}

// matchAt reports whether entry e matches the units at pos.
func (g *generator) matchAt(e *Entry, blk []Unit, pos int) bool {
	if pos+len(e.Items) > len(blk) {
		return false
	}
	for i := range e.Items {
		if !e.Items[i].matches(&blk[pos+i]) {
			return false
		}
	}
	return true
}

// parseBlock greedily tokenizes one block, longest entry first.
func (g *generator) parseBlock(blk []Unit) []int {
	tokens := make([]int, 0, len(blk))
	for pos := 0; pos < len(blk); {
		best := -1
		for _, id := range g.byFirst[blk[pos].Op] {
			if g.matchAt(&g.dict[id], blk, pos) {
				best = id
				break // byFirst is longest-first
			}
		}
		if best < 0 {
			// Cannot happen: singles for every op are in the dictionary.
			panic(fmt.Sprintf("sadc: no dictionary match for op %d", blk[pos].Op))
		}
		tokens = append(tokens, best)
		pos += len(g.dict[best].Items)
	}
	return tokens
}

// parseAll tokenizes every block.
func (g *generator) parseAll() [][]int {
	out := make([][]int, len(g.blocks))
	for i, blk := range g.blocks {
		out[i] = g.parseBlock(blk)
	}
	return out
}

// dictStorage is the dictionary's total byte cost.
func (g *generator) dictStorage() int {
	n := 0
	for i := range g.dict {
		n += 1 + g.dict[i].storageBytes() // 1-byte item count + contents
	}
	return n
}

// encodedSize is the pre-Huffman objective the generator minimizes: one
// byte per token, every unfused operand byte, plus dictionary storage.
func (g *generator) encodedSize(parses [][]int) int {
	n := g.dictStorage()
	for bi, toks := range parses {
		n += len(toks)
		pos := 0
		for _, t := range toks {
			e := &g.dict[t]
			for ii := range e.Items {
				u := &g.blocks[bi][pos]
				for s := Stream(0); s < numOperandStreams; s++ {
					if e.Items[ii].fused(s) == nil {
						n += len(u.stream(s))
					}
				}
				pos++
			}
		}
	}
	return n
}

type candidate struct {
	entry Entry
	gain  int
}

// collectCandidates scans the current token streams for the paper's three
// candidate classes and returns the best-gain candidate, if any.
//
// Gains are measured in bytes actually saved per cycle at the token level:
// merging k adjacent tokens saves (k-1) bytes per occurrence; fusing an
// operand saves its stream bytes per occurrence; both pay the new entry's
// dictionary storage. (For first-cycle single-opcode groups this reduces
// exactly to the paper's g = f·(n−1) − n.)
func (g *generator) collectCandidates(parses [][]int) (candidate, bool) {
	type pairKey [2]int
	type tripleKey [3]int
	pairF := map[pairKey]int{}
	pairLast := map[pairKey]int{}
	tripleF := map[tripleKey]int{}
	tripleLast := map[tripleKey]int{}
	type fuseKey struct {
		entry  int
		item   int
		stream Stream
		val    string
	}
	fuseF := map[fuseKey]int{}

	for bi, toks := range parses {
		// Non-overlapping pair and triple counts.
		for i := 0; i+1 < len(toks); i++ {
			pk := pairKey{toks[i], toks[i+1]}
			if last, ok := pairLast[pk]; !ok || last <= i {
				pairF[pk]++
				pairLast[pk] = i + 2
			}
		}
		for i := 0; i+2 < len(toks); i++ {
			tk := tripleKey{toks[i], toks[i+1], toks[i+2]}
			if last, ok := tripleLast[tk]; !ok || last <= i {
				tripleF[tk]++
				tripleLast[tk] = i + 3
			}
		}
		// Reset the overlap guards between blocks: entries cannot span
		// blocks anyway.
		pairLast = map[pairKey]int{}
		tripleLast = map[tripleKey]int{}

		// Operand-fusion counts: for every token occurrence and every item
		// slot whose operand still comes from a stream, count the concrete
		// value — "instructions which appear frequently with some specific
		// registers or immediates" (§4), generalized to instructions inside
		// already-grouped entries (a return sequence fuses its jr r31).
		pos := 0
		for _, t := range toks {
			e := &g.dict[t]
			for ii := range e.Items {
				u := &g.blocks[bi][pos]
				for s := Stream(0); s < numOperandStreams; s++ {
					if e.Items[ii].fused(s) != nil {
						continue
					}
					if b := u.stream(s); len(b) > 0 {
						fuseF[fuseKey{t, ii, s, string(b)}]++
					}
				}
				pos++
			}
		}
	}

	// The candidate maps are scanned in Go's random map order, so equal
	// gains go to the entry that orders last (longest, then highest
	// opcodes): the same text must always compress to the same ROM image.
	best := candidate{gain: 0}
	consider := func(e Entry, gain int) {
		if gain > best.gain || gain == best.gain && gain > 0 && best.entry.less(&e) {
			best = candidate{entry: e, gain: gain}
		}
	}
	concat := func(ids ...int) (Entry, bool) {
		var items []Item
		for _, id := range ids {
			items = append(items, g.dict[id].Items...)
		}
		if len(items) > g.opts.MaxItems {
			return Entry{}, false
		}
		return Entry{Items: items}, true
	}
	for pk, f := range pairF {
		e, ok := concat(pk[0], pk[1])
		if !ok {
			continue
		}
		consider(e, f*1-(1+e.storageBytes()))
	}
	for tk, f := range tripleF {
		e, ok := concat(tk[0], tk[1], tk[2])
		if !ok {
			continue
		}
		consider(e, f*2-(1+e.storageBytes()))
	}
	for fk, f := range fuseF {
		// New entry: a copy of the source entry with one item's operand
		// baked in.
		src := &g.dict[fk.entry]
		items := make([]Item, len(src.Items))
		copy(items, src.Items)
		it := items[fk.item] // copy; fused slices are shared read-only
		val := []byte(fk.val)
		switch fk.stream {
		case StreamRegs:
			it.Regs = val
		case StreamImm:
			it.Imm = val
		default:
			it.Limm = val
		}
		items[fk.item] = it
		e := Entry{Items: items}
		consider(e, f*len(val)-(1+e.storageBytes()))
	}
	return best, best.gain > 0
}

// Compress builds the dictionary and Huffman-codes the streams.
func Compress(text []byte, ad Adapter, opts Options) (*Compressed, error) {
	opts = opts.withDefaults()
	units, err := ad.ToUnits(text)
	if err != nil {
		return nil, err
	}
	blocks := packBlocks(units, opts.BlockSize)
	g := newGenerator(blocks, opts)
	if len(g.dict) > opts.MaxEntries {
		return nil, fmt.Errorf("sadc: %d distinct opcodes exceed dictionary capacity %d", len(g.dict), opts.MaxEntries)
	}

	// Iterative generation: insert the best candidate, re-parse, stop when
	// full, gainless, or no longer shrinking (paper §4 step 4).
	parses := g.parseAll()
	prevSize := g.encodedSize(parses)
	for cycle := 0; cycle < opts.MaxCycles && len(g.dict) < opts.MaxEntries; cycle++ {
		cand, ok := g.collectCandidates(parses)
		if !ok {
			break
		}
		g.addEntry(cand.entry)
		newParses := g.parseAll()
		newSize := g.encodedSize(newParses)
		if newSize >= prevSize {
			g.removeLastEntry()
			break
		}
		parses, prevSize = newParses, newSize
	}

	// Materialize per-block raw streams.
	type rawBlock struct {
		seg    [4][]byte
		tokens int
		bytes  int
	}
	raws := make([]rawBlock, len(blocks))
	var freq [4][]uint64
	for s := range freq {
		freq[s] = make([]uint64, 256)
	}
	for bi, toks := range parses {
		rb := &raws[bi]
		rb.tokens = len(toks)
		pos := 0
		for _, t := range toks {
			rb.seg[0] = append(rb.seg[0], byte(t))
			freq[0][t]++
			e := &g.dict[t]
			for ii := range e.Items {
				u := &g.blocks[bi][pos]
				for s := Stream(0); s < numOperandStreams; s++ {
					if e.Items[ii].fused(s) == nil {
						for _, b := range u.stream(s) {
							rb.seg[1+s] = append(rb.seg[1+s], b)
							freq[1+s][b]++
						}
					}
				}
				pos++
			}
		}
		for i := range blocks[bi] {
			rb.bytes += blocks[bi][i].Size
		}
	}

	// Final step (§4): Huffman-encode all resulting streams.
	c := &Compressed{
		Dict:      g.dict,
		BlockSize: opts.BlockSize,
		OrigSize:  len(text),
		adapter:   ad,
	}
	for s := range freq {
		tbl, err := huffman.Build(freq[s], huffman.MaxBits)
		if err != nil {
			return nil, err
		}
		c.Tables[s] = tbl
	}
	w := bitio.NewWriter(opts.BlockSize)
	for _, rb := range raws {
		var blk Block
		blk.Tokens = rb.tokens
		blk.Bytes = rb.bytes
		for s := range rb.seg {
			w.Reset()
			for _, b := range rb.seg[s] {
				if err := c.Tables[s].Encode(w, int(b)); err != nil {
					return nil, err
				}
			}
			blk.Seg[s] = w.AppendBytes(make([]byte, 0, w.Len()))
		}
		c.Blocks = append(c.Blocks, blk)
	}
	return c, nil
}

// NumBlocks returns the block count.
func (c *Compressed) NumBlocks() int { return len(c.Blocks) }

// Block decompresses one cache block independently into a fresh buffer.
func (c *Compressed) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("sadc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.AppendBlock(make([]byte, 0, c.Blocks[i].Bytes), i)
}

// blockReference is the original bit-serial, closure-based decode path. It is
// kept as the differential-testing oracle for AppendBlock and as the baseline
// the decode benchmarks measure speedups against.
func (c *Compressed) blockReference(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("sadc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	blk := &c.Blocks[i]
	var readers [4]*bitio.Reader
	for s := range blk.Seg {
		readers[s] = bitio.NewReader(blk.Seg[s])
	}
	readStream := func(s Stream, n int) ([]byte, error) {
		out := make([]byte, n)
		for k := 0; k < n; k++ {
			sym, err := c.Tables[1+s].Decode(readers[1+s])
			if err != nil {
				return nil, err
			}
			out[k] = byte(sym)
		}
		return out, nil
	}
	units := make([]Unit, 0, blk.Tokens)
	for t := 0; t < blk.Tokens; t++ {
		sym, err := c.Tables[0].Decode(readers[0])
		if err != nil {
			return nil, fmt.Errorf("sadc: token %d of block %d: %w", t, i, err)
		}
		if sym >= len(c.Dict) {
			return nil, fmt.Errorf("sadc: token %d out of dictionary range", sym)
		}
		e := &c.Dict[sym]
		for ii := range e.Items {
			it := &e.Items[ii]
			var cursors [numOperandStreams]int
			take := func(s Stream, n int) ([]byte, error) {
				if f := it.fused(s); f != nil {
					if cursors[s]+n > len(f) {
						return nil, errShort
					}
					b := f[cursors[s] : cursors[s]+n]
					cursors[s] += n
					return b, nil
				}
				return readStream(s, n)
			}
			u, err := c.adapter.ReadOperands(it.Op, take)
			if err != nil {
				return nil, fmt.Errorf("sadc: block %d: %w", i, err)
			}
			units = append(units, u)
		}
	}
	return c.adapter.FromUnits(units)
}

// decState is the reusable scratch one AppendBlock call needs: the four
// stream readers, the decoded units, and a byte arena that backs every
// operand slice handed to the adapter. States are pooled so a steady-state
// block decode performs no transient heap allocations.
type decState struct {
	readers [4]bitio.Reader
	units   []Unit
	arena   []byte
	c       *Compressed
	it      *Item
	cursors [numOperandStreams]int
	takeFn  func(s Stream, n int) ([]byte, error)
}

var decPool = sync.Pool{New: func() any {
	d := &decState{}
	// Bind the method value once per state so handing it to ReadOperands
	// does not allocate a closure per item.
	d.takeFn = d.take
	return d
}}

// take satisfies the adapter's operand callback: fused operands come from the
// dictionary entry, everything else is Huffman-decoded from the stream's
// segment into the arena. Slices returned earlier stay valid when the arena
// grows — they keep pointing into the old backing array.
func (d *decState) take(s Stream, n int) ([]byte, error) {
	if f := d.it.fused(s); f != nil {
		if d.cursors[s]+n > len(f) {
			return nil, errShort
		}
		b := f[d.cursors[s] : d.cursors[s]+n]
		d.cursors[s] += n
		return b, nil
	}
	r := &d.readers[1+s]
	tbl := d.c.Tables[1+s]
	start := len(d.arena)
	for k := 0; k < n; k++ {
		sym, err := tbl.DecodeFast(r)
		if err != nil {
			return nil, err
		}
		d.arena = append(d.arena, byte(sym))
	}
	return d.arena[start:], nil
}

// release returns the state to the pool, dropping references that would pin
// a dead image.
func (d *decState) release() {
	d.c = nil
	d.it = nil
	decPool.Put(d)
}

// AppendBlock decompresses block i and appends its bytes to dst, returning
// the extended slice. It is the allocation-free fast path behind Block: the
// four segment readers are pooled values reset in place, symbols come off
// the Huffman tables' first-level lookup tables (DecodeFast), and operand
// bytes land in a pooled arena instead of per-operand slices. Output is
// bit-identical to blockReference, including errors on corrupt input.
func (c *Compressed) AppendBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("sadc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.appendBlockLimit(dst, i, c.Blocks[i].Bytes)
}

// AppendBlockPrefix decompresses only the first n bytes of block i: the
// token loop stops at the dictionary token whose units reach the
// requested offset (later tokens are never Huffman-decoded) and the
// reassembled output is truncated to n bytes. Bit-identical to the
// same-length prefix of AppendBlock; corruption confined to the
// undecoded token tail goes undetected by construction.
func (c *Compressed) AppendBlockPrefix(dst []byte, i, n int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("sadc: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	if want := c.Blocks[i].Bytes; n > want {
		n = want
	}
	if n <= 0 {
		return dst, nil
	}
	return c.appendBlockLimit(dst, i, n)
}

// appendBlockLimit decodes block i until at least limit output bytes are
// covered, then truncates to exactly limit. Caller validates i and
// clamps limit to the block's decoded length; decoding every token of
// the block covers exactly Block.Bytes, so limit == Block.Bytes is the
// full decode.
func (c *Compressed) appendBlockLimit(dst []byte, i, limit int) ([]byte, error) {
	blk := &c.Blocks[i]
	d := decPool.Get().(*decState)
	defer d.release()
	d.c = c
	d.units = d.units[:0]
	d.arena = d.arena[:0]
	for s := range blk.Seg {
		d.readers[s].Reset(blk.Seg[s])
	}
	tokens := c.Tables[0]
	tr := &d.readers[0]
	covered := 0
	for t := 0; t < blk.Tokens && covered < limit; t++ {
		sym, err := tokens.DecodeFast(tr)
		if err != nil {
			return nil, fmt.Errorf("sadc: token %d of block %d: %w", t, i, err)
		}
		if sym >= len(c.Dict) {
			return nil, fmt.Errorf("sadc: token %d out of dictionary range", sym)
		}
		e := &c.Dict[sym]
		for ii := range e.Items {
			d.it = &e.Items[ii]
			d.cursors = [numOperandStreams]int{}
			u, err := c.adapter.ReadOperands(d.it.Op, d.takeFn)
			if err != nil {
				return nil, fmt.Errorf("sadc: block %d: %w", i, err)
			}
			d.units = append(d.units, u)
			covered += u.Size
		}
	}
	if aa, ok := c.adapter.(appendAdapter); ok {
		out, err := aa.AppendUnits(dst, d.units)
		if err != nil {
			return nil, err
		}
		if len(out) > len(dst)+limit {
			out = out[:len(dst)+limit]
		}
		return out, nil
	}
	out, err := c.adapter.FromUnits(d.units)
	if err != nil {
		return nil, err
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return append(dst, out...), nil
}

// Decompress reconstructs the entire program.
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

// PayloadBytes is the total Huffman-coded stream payload.
func (c *Compressed) PayloadBytes() int {
	n := 0
	for i := range c.Blocks {
		for s := range c.Blocks[i].Seg {
			n += len(c.Blocks[i].Seg[s])
		}
	}
	return n
}

// StreamBytes reports the payload of one stream across all blocks
// (0 = tokens, 1 = registers, 2 = immediates, 3 = long immediates).
func (c *Compressed) StreamBytes(s int) int {
	n := 0
	for i := range c.Blocks {
		n += len(c.Blocks[i].Seg[s])
	}
	return n
}

// DictBytes is the dictionary's storage cost including the adapter's
// auxiliary tables.
func (c *Compressed) DictBytes() int {
	n := 0
	for i := range c.Dict {
		n += 1 + c.Dict[i].storageBytes()
	}
	return n + c.adapter.AuxBytes()
}

// TableBytes is the serialized Huffman table cost (4-bit code lengths).
func (c *Compressed) TableBytes() int {
	n := 0
	for _, t := range c.Tables {
		n += (t.TableBits() + 7) / 8
	}
	return n
}

// CompressedSize = payload + dictionary + Huffman tables.
func (c *Compressed) CompressedSize() int {
	return c.PayloadBytes() + c.DictBytes() + c.TableBytes()
}

// Ratio is compressed/original size.
func (c *Compressed) Ratio() float64 {
	if c.OrigSize == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(c.OrigSize)
}
