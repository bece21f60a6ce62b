// Package kozuch implements the byte-based Huffman code compressor of
// Kozuch & Wolfe ("Compression of embedded system programs", ICCD 1994) —
// the prior instruction-compression scheme the paper compares against in
// Figure 9. A single canonical Huffman code over 8-bit symbols is built per
// program; every cache block is encoded separately and padded to a byte
// boundary, so blocks decompress independently. The paper reports an
// average ratio around 0.73 with this scheme and criticizes it for coding
// all four bytes of a RISC word with one table.
package kozuch

import (
	"fmt"

	"codecomp/internal/bitio"
	"codecomp/internal/huffman"
)

// Compressed is a byte-Huffman compressed image.
type Compressed struct {
	Table     *huffman.Table
	Blocks    [][]byte
	BlockSize int
	OrigSize  int
}

// Compress builds the per-program byte code and encodes each block.
func Compress(text []byte, blockSize int) (*Compressed, error) {
	c, err := Train(text, blockSize)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(text); off += c.BlockSize {
		end := off + c.BlockSize
		if end > len(text) {
			end = len(text)
		}
		blk, err := c.EncodeBlock(text[off:end])
		if err != nil {
			return nil, err
		}
		c.Blocks = append(c.Blocks, blk)
	}
	return c, nil
}

// Train builds the per-program byte code from the whole text and returns
// an image with no payloads. A caller that needs only some blocks coded
// (the tiering layer) fills Blocks through EncodeBlock, which codes any
// block of the text exactly as Compress would have.
func Train(text []byte, blockSize int) (*Compressed, error) {
	if blockSize <= 0 {
		blockSize = 32
	}
	freq := make([]uint64, 256)
	for _, b := range text {
		freq[b]++
	}
	tbl, err := huffman.Build(freq, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	return &Compressed{Table: tbl, BlockSize: blockSize, OrigSize: len(text)}, nil
}

// EncodeBlock Huffman-codes one block's worth of bytes against the image's
// frozen table — the Compress inner loop exposed for block-granular
// re-encoding (tier migration). It fails if the block contains a byte the
// table has no code for (a symbol absent from the training text).
// len(block) must not exceed BlockSize.
func (c *Compressed) EncodeBlock(block []byte) ([]byte, error) {
	if len(block) > c.BlockSize {
		return nil, fmt.Errorf("kozuch: block length %d exceeds block size %d", len(block), c.BlockSize)
	}
	w := bitio.NewWriter(c.BlockSize)
	for _, b := range block {
		if err := c.Table.Encode(w, int(b)); err != nil {
			return nil, err
		}
	}
	return w.AppendBytes(make([]byte, 0, w.Len())), nil
}

// NumBlocks returns the block count.
func (c *Compressed) NumBlocks() int { return len(c.Blocks) }

// Block decompresses one cache block into a fresh buffer.
func (c *Compressed) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("kozuch: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.AppendBlock(make([]byte, 0, c.blockOrigLen(i)), i)
}

// blockOrigLen is block i's uncompressed byte count (the last block may be
// short).
func (c *Compressed) blockOrigLen(i int) int {
	n := c.BlockSize
	if (i+1)*c.BlockSize > c.OrigSize {
		n = c.OrigSize - i*c.BlockSize
	}
	return n
}

// blockReference is the original bit-serial decode, kept as the differential
// oracle and benchmark baseline for AppendBlock.
func (c *Compressed) blockReference(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("kozuch: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	r := bitio.NewReader(c.Blocks[i])
	out := make([]byte, c.blockOrigLen(i))
	for k := range out {
		sym, err := c.Table.Decode(r)
		if err != nil {
			return nil, err
		}
		out[k] = byte(sym)
	}
	return out, nil
}

// AppendBlock decompresses block i and appends its bytes to dst through
// the Huffman table's fused block decode (huffman.Table.AppendSymbols), so
// a decode allocates nothing beyond dst's growth.
func (c *Compressed) AppendBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("kozuch: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	return c.appendBlockN(dst, i, c.blockOrigLen(i))
}

// AppendBlockPrefix decompresses only the first n bytes of block i. The
// block is one self-terminating Huffman symbol stream with one symbol per
// output byte, so the decode stops exactly at the requested offset — the
// tail is never touched. Output is bit-identical to the same-length
// prefix of AppendBlock, which also means corruption confined to the
// undecoded tail goes undetected here by construction.
func (c *Compressed) AppendBlockPrefix(dst []byte, i, n int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("kozuch: block %d out of range [0,%d)", i, len(c.Blocks))
	}
	if want := c.blockOrigLen(i); n > want {
		n = want
	}
	if n <= 0 {
		return dst, nil
	}
	return c.appendBlockN(dst, i, n)
}

// appendBlockN decodes the first n symbols of block i. Caller validates
// i and clamps n to the block's decoded length.
func (c *Compressed) appendBlockN(dst []byte, i, n int) ([]byte, error) {
	dst, err := c.Table.AppendSymbols(dst, c.Blocks[i], n)
	if err != nil {
		return nil, err
	}
	return dst, nil
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

// PayloadBytes is the total encoded block payload.
func (c *Compressed) PayloadBytes() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b)
	}
	return n
}

// TableBytes is the stored code-length table (4 bits × 256 symbols).
func (c *Compressed) TableBytes() int { return (c.Table.TableBits() + 7) / 8 }

// CompressedSize is payload plus table.
func (c *Compressed) CompressedSize() int { return c.PayloadBytes() + c.TableBytes() }

// Ratio is compressed/original size.
func (c *Compressed) Ratio() float64 {
	if c.OrigSize == 0 {
		return 1
	}
	return float64(c.CompressedSize()) / float64(c.OrigSize)
}
