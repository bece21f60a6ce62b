// Package tiering implements heat-tiered code storage: one logical
// block-addressable image whose blocks are individually assigned to one of
// several codec tiers spanning the ratio/latency spectrum — raw bytes and
// byte-Huffman for blocks that must decode fast, SAMC and interleaved rANS
// for blocks that should compress hard. The idea follows Ozturk et al.'s
// access-pattern-based compression: the Wolfe/Chanin organization picks one
// codec for the whole ROM, but the better point on the ratio/latency curve
// is per-region — hot code stays cheap to access, cold code stays dense.
//
// A tiered image holds one sub-image per tier, each a standard full-geometry
// codec image (same block size, original size and block count as the
// container) sharing its model/table across all blocks — but storing payload
// bytes only for the blocks currently assigned to it; every other block's
// payload slot is empty. A per-block assignment map dispatches each decode
// to its tier. Storing the model once per tier rather than per block is what
// keeps mixed-codec ratios competitive at cache-block granularity: a 32-byte
// block cannot amortize its own Markov model, but it can share one with
// every other cold block.
//
// Blocks migrate between tiers at runtime via MigrateBlock: re-encode the
// block's bytes under the target tier's frozen model, decode the candidate
// payload back, verify it byte-exact (plus any caller check, e.g. the
// serving layer's CRC sidecar), then atomically swap the payload and the
// assignment. Migration is the one mutation in the codec family, so the
// container serializes it against concurrent decodes with an internal
// RWMutex — readers pay one RLock per block decode.
//
// The serialized "TIER" container nests each tier's standard marshaled image
// (dispatched through its own magic, so the load path per-block dispatch the
// serving layer performs via DetectFormat/UnmarshalAny extends naturally),
// an assignment byte per block, and a whole-image CRC.
package tiering

import (
	"bytes"
	"fmt"
	"sync"

	"codecomp/internal/kozuch"
	"codecomp/internal/rans"
	"codecomp/internal/samc"
)

// Tier format names, ordered fastest decode to densest storage. They match
// codecomp's serialized-format names where a serialized form exists; "raw"
// is tiering-only (uncompressed block bytes, effectively memcpy decode).
const (
	// TierRaw stores block bytes uncompressed: ratio 1.0, memcpy decode.
	TierRaw = "raw"
	// TierHuffman is Kozuch & Wolfe byte-Huffman: ~0.73 ratio, table decode.
	TierHuffman = "huffman"
	// TierRANS is interleaved rANS: densest here (~0.60 at large blocks)
	// at table-lookup decode speed.
	TierRANS = "rans"
	// TierSAMC is the paper's Markov + arithmetic coder: dense but the
	// slowest decode (bit-serial); rANS dominates it on both axes, so a
	// SAMC tier mainly serves as the paper-faithful comparison point.
	TierSAMC = "samc"
)

// tierOrder ranks tier formats by decode speed (fastest first). Spec.Tiers
// must be listed in strictly increasing rank so "lower tier index" always
// means "faster decode" — the invariant the heat policy and the serving
// layer's fast/dense accounting rely on.
var tierOrder = map[string]int{TierRaw: 0, TierHuffman: 1, TierRANS: 2, TierSAMC: 3}

// Spec configures Compress.
type Spec struct {
	// BlockSize is the decode granularity in bytes (0 → 128). rANS tiers
	// require a multiple of 4; SAMC tiers a multiple of WordBytes.
	BlockSize int
	// Tiers lists 1–4 distinct tier formats ordered fastest → densest
	// (TierRaw, TierHuffman, TierRANS, TierSAMC in that relative order).
	Tiers []string
	// Assign optionally sets each block's initial tier index. Nil assigns
	// every block to DefaultTier.
	Assign []uint8
	// DefaultTier is the tier index blocks start in when Assign is nil.
	// Starting everything in the densest tier (len(Tiers)-1) and letting
	// the recompressor promote hot blocks is the usual deployment.
	DefaultTier int
	// WordBytes is the SAMC instruction width (0 → 4). Ignored without a
	// SAMC tier.
	WordBytes int
	// Streams is the rANS interleaving factor (0 → 1; the densest choice —
	// each extra stream flushes 12 more state bits per block, which at
	// cache-block sizes costs more ratio than its decode parallelism is
	// worth on the cold tier). Ignored without a rANS tier.
	Streams int
}

// withDefaults validates and fills a Spec.
func (s Spec) withDefaults() (Spec, error) {
	if s.BlockSize == 0 {
		s.BlockSize = 128
	}
	if s.BlockSize <= 0 || s.BlockSize > 1<<16-1 {
		return s, fmt.Errorf("tiering: block size %d outside [1,65535]", s.BlockSize)
	}
	if s.WordBytes == 0 {
		s.WordBytes = 4
	}
	if s.Streams == 0 {
		s.Streams = 1
	}
	if len(s.Tiers) == 0 || len(s.Tiers) > 4 {
		return s, fmt.Errorf("tiering: %d tiers outside [1,4]", len(s.Tiers))
	}
	prev := -1
	for _, f := range s.Tiers {
		rank, ok := tierOrder[f]
		if !ok {
			return s, fmt.Errorf("tiering: unknown tier format %q", f)
		}
		if rank <= prev {
			return s, fmt.Errorf("tiering: tiers must be distinct and ordered fastest to densest (raw, huffman, rans, samc)")
		}
		prev = rank
		switch f {
		case TierRANS:
			if s.BlockSize%4 != 0 {
				return s, fmt.Errorf("tiering: block size %d not a multiple of 4 (rANS tier)", s.BlockSize)
			}
		case TierSAMC:
			if s.BlockSize%s.WordBytes != 0 {
				return s, fmt.Errorf("tiering: block size %d not a multiple of word size %d (SAMC tier)", s.BlockSize, s.WordBytes)
			}
		}
	}
	if s.DefaultTier < 0 || s.DefaultTier >= len(s.Tiers) {
		return s, fmt.Errorf("tiering: default tier %d outside [0,%d)", s.DefaultTier, len(s.Tiers))
	}
	return s, nil
}

// subTier is one tier's sub-image: exactly one of the codec pointers (or
// raw) is set, matching format.
type subTier struct {
	format string
	samc   *samc.Compressed
	huff   *kozuch.Compressed
	rans   *rans.Compressed
	raw    [][]byte
}

// payloads returns the tier's per-block payload slice (length = container
// block count; unassigned blocks hold empty slices).
func (t *subTier) payloads() [][]byte {
	switch t.format {
	case TierRaw:
		return t.raw
	case TierHuffman:
		return t.huff.Blocks
	case TierSAMC:
		return t.samc.Blocks
	default:
		return t.rans.Blocks
	}
}

// appendBlock decodes block i through the tier's codec.
func (t *subTier) appendBlock(dst []byte, i int) ([]byte, error) {
	switch t.format {
	case TierRaw:
		return append(dst, t.raw[i]...), nil
	case TierHuffman:
		return t.huff.AppendBlock(dst, i)
	case TierSAMC:
		return t.samc.AppendBlock(dst, i)
	default:
		return t.rans.AppendBlock(dst, i)
	}
}

// encodeBlock encodes arbitrary block content under the tier's frozen
// model.
func (t *subTier) encodeBlock(content []byte) ([]byte, error) {
	switch t.format {
	case TierRaw:
		return append([]byte(nil), content...), nil
	case TierHuffman:
		return t.huff.EncodeBlock(content)
	case TierSAMC:
		return t.samc.EncodeBlock(content)
	default:
		return t.rans.EncodeBlock(content)
	}
}

// modelBytes is the tier's fixed model/table storage cost.
func (t *subTier) modelBytes() int {
	switch t.format {
	case TierRaw:
		return 0
	case TierHuffman:
		return t.huff.TableBytes()
	case TierSAMC:
		return t.samc.ModelBytes()
	default:
		return t.rans.TableBytes()
	}
}

// Compressed is a heat-tiered image: per-tier shared-model sub-images plus
// a per-block tier assignment. It implements the codecomp BlockCodec
// contract with one amendment: unlike the single-codec images it is not
// immutable — MigrateBlock rewrites one block's payload and assignment
// under an internal write lock, and every decode takes the corresponding
// read lock, so concurrent decodes and migrations are safe and each
// decode observes exactly one consistent tier for its block.
type Compressed struct {
	mu        sync.RWMutex
	blockSize int
	origSize  int
	assign    []uint8
	tiers     []subTier
}

// Compress builds a tiered image: it trains every tier's codec over the
// whole text (so any block can later migrate into any tier losslessly),
// then encodes each block only in its assigned tier.
func Compress(text []byte, spec Spec) (*Compressed, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	numBlocks := 0
	if len(text) > 0 {
		numBlocks = (len(text) + spec.BlockSize - 1) / spec.BlockSize
	}
	assign := make([]uint8, numBlocks)
	if spec.Assign != nil {
		if len(spec.Assign) != numBlocks {
			return nil, fmt.Errorf("tiering: %d assignments for %d blocks", len(spec.Assign), numBlocks)
		}
		for i, a := range spec.Assign {
			if int(a) >= len(spec.Tiers) {
				return nil, fmt.Errorf("tiering: block %d assigned to tier %d of %d", i, a, len(spec.Tiers))
			}
			assign[i] = a
		}
	} else {
		for i := range assign {
			assign[i] = uint8(spec.DefaultTier)
		}
	}

	c := &Compressed{
		blockSize: spec.BlockSize,
		origSize:  len(text),
		assign:    assign,
	}
	// Train every tier's model over the whole text, so a later migration
	// can re-encode any block into any tier, but start each with every
	// payload slot empty.
	for _, f := range spec.Tiers {
		st := subTier{format: f}
		switch f {
		case TierRaw:
			st.raw = make([][]byte, numBlocks)
		case TierHuffman:
			if st.huff, err = kozuch.Train(text, spec.BlockSize); err == nil {
				st.huff.Blocks = make([][]byte, numBlocks)
			}
		case TierSAMC:
			if st.samc, err = samc.Train(text, samc.Options{BlockSize: spec.BlockSize, WordBytes: spec.WordBytes}); err == nil {
				st.samc.Blocks = make([][]byte, numBlocks)
			}
		case TierRANS:
			if st.rans, err = rans.Train(text, rans.Options{BlockSize: spec.BlockSize, Streams: spec.Streams}); err == nil {
				st.rans.Blocks = make([][]byte, numBlocks)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tiering: %s tier: %w", f, err)
		}
		c.tiers = append(c.tiers, st)
	}
	// Encode each block once, in its assigned tier.
	for i, a := range assign {
		t := &c.tiers[a]
		payload, err := t.encodeBlock(text[i*spec.BlockSize : i*spec.BlockSize+c.blockOrigLen(i)])
		if err != nil {
			return nil, fmt.Errorf("tiering: %s tier: block %d: %w", t.format, i, err)
		}
		t.payloads()[i] = payload
	}
	return c, nil
}

// blockOrigLen is block i's decoded byte count (the last block may be
// short).
func (c *Compressed) blockOrigLen(i int) int {
	n := c.blockSize
	if (i+1)*c.blockSize > c.origSize {
		n = c.origSize - i*c.blockSize
	}
	return n
}

// NumBlocks returns the block count.
func (c *Compressed) NumBlocks() int { return len(c.assign) }

// BlockSize returns the decode granularity in bytes.
func (c *Compressed) BlockSize() int { return c.blockSize }

// OrigSize returns the uncompressed image size in bytes.
func (c *Compressed) OrigSize() int { return c.origSize }

// Tiers returns the tier formats, fastest first.
func (c *Compressed) Tiers() []string {
	out := make([]string, len(c.tiers))
	for i := range c.tiers {
		out[i] = c.tiers[i].format
	}
	return out
}

// TierOf returns the tier index currently serving block i.
func (c *Compressed) TierOf(i int) (int, error) {
	if i < 0 || i >= len(c.assign) {
		return 0, fmt.Errorf("tiering: block %d out of range [0,%d)", i, len(c.assign))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.assign[i]), nil
}

// Assignments returns a copy of the per-block tier assignment.
func (c *Compressed) Assignments() []uint8 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]uint8(nil), c.assign...)
}

// TierCount summarizes one tier's current occupancy.
type TierCount struct {
	// Format is the tier's codec format name.
	Format string `json:"format"`
	// Blocks is how many blocks the tier currently serves.
	Blocks int `json:"blocks"`
	// PayloadBytes is the tier's stored payload total (model excluded).
	PayloadBytes int `json:"payload_bytes"`
	// ModelBytes is the tier's fixed model/table cost, paid whether or not
	// any block is assigned.
	ModelBytes int `json:"model_bytes"`
}

// Stats returns per-tier occupancy, fastest tier first.
func (c *Compressed) Stats() []TierCount {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]TierCount, len(c.tiers))
	for t := range c.tiers {
		out[t] = TierCount{Format: c.tiers[t].format, ModelBytes: c.tiers[t].modelBytes()}
	}
	for i, a := range c.assign {
		out[a].Blocks++
		out[a].PayloadBytes += len(c.tiers[a].payloads()[i])
	}
	return out
}

// Block decompresses one block into a fresh buffer.
func (c *Compressed) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(c.assign) {
		return nil, fmt.Errorf("tiering: block %d out of range [0,%d)", i, len(c.assign))
	}
	return c.AppendBlock(make([]byte, 0, c.blockOrigLen(i)), i)
}

// AppendBlock decompresses block i through its current tier's codec and
// appends the bytes to dst. Safe for concurrent use with MigrateBlock.
func (c *Compressed) AppendBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(c.assign) {
		return nil, fmt.Errorf("tiering: block %d out of range [0,%d)", i, len(c.assign))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tiers[c.assign[i]].appendBlock(dst, i)
}

// Decompress reconstructs the whole program.
func (c *Compressed) Decompress() ([]byte, error) {
	out := make([]byte, 0, c.origSize)
	var err error
	for i := range c.assign {
		out, err = c.AppendBlock(out, i)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CompressedSize is the stored footprint: every tier's model plus each
// block's payload in its assigned tier. As with the other codecs the
// per-block offset tables are excluded (they are the memory organization's
// LAT); the one-byte-per-block assignment map rides with the LAT — it is
// addressing metadata, a quarter the size of the LAT's own u32 entries —
// and is excluded on the same grounds.
func (c *Compressed) CompressedSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for t := range c.tiers {
		n += c.tiers[t].modelBytes()
	}
	for i, a := range c.assign {
		n += len(c.tiers[a].payloads()[i])
	}
	return n
}

// Ratio is compressed/original size — the paper's metric.
func (c *Compressed) Ratio() float64 {
	if c.origSize == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(c.origSize)
}

// MigrateBlock moves block i to tier target by encode-verify-swap: decode
// the block from its current tier, re-encode it under the target tier's
// frozen model, decode the candidate payload back and require it
// byte-identical (and verify(roundTrip) == nil if verify is non-nil — the
// serving layer passes its CRC-sidecar check here), then swap the payload
// and assignment. On any failure the image is left exactly as it was.
//
// The returned delta is the stored-byte change (new payload length minus
// old; negative when the move saved space). A block already in the target
// tier returns (0, nil) without touching anything.
//
// The whole operation holds the write lock: concurrent decodes of every
// block stall for the one encode + two decodes (microseconds at cache-block
// sizes), and can never observe a half-migrated block.
func (c *Compressed) MigrateBlock(i, target int, verify func(decoded []byte) error) (delta int, err error) {
	if i < 0 || i >= len(c.assign) {
		return 0, fmt.Errorf("tiering: block %d out of range [0,%d)", i, len(c.assign))
	}
	if target < 0 || target >= len(c.tiers) {
		return 0, fmt.Errorf("tiering: tier %d out of range [0,%d)", target, len(c.tiers))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := int(c.assign[i])
	if cur == target {
		return 0, nil
	}
	content, err := c.tiers[cur].appendBlock(nil, i)
	if err != nil {
		return 0, fmt.Errorf("tiering: decode block %d from %s: %w", i, c.tiers[cur].format, err)
	}
	payload, err := c.tiers[target].encodeBlock(content)
	if err != nil {
		return 0, fmt.Errorf("tiering: encode block %d to %s: %w", i, c.tiers[target].format, err)
	}
	// Install the candidate, round-trip it through the real decode path,
	// and roll back unless it reproduces the block exactly.
	tp := c.tiers[target].payloads()
	old := tp[i]
	tp[i] = payload
	roundTrip, err := c.tiers[target].appendBlock(nil, i)
	if err == nil && !bytes.Equal(roundTrip, content) {
		err = fmt.Errorf("tiering: round-trip mismatch (%d bytes vs %d)", len(roundTrip), len(content))
	}
	if err == nil && verify != nil {
		err = verify(roundTrip)
	}
	if err != nil {
		tp[i] = old
		return 0, fmt.Errorf("tiering: verify block %d in %s: %w", i, c.tiers[target].format, err)
	}
	sp := c.tiers[cur].payloads()
	delta = len(payload) - len(sp[i])
	sp[i] = nil
	c.assign[i] = uint8(target)
	return delta, nil
}
