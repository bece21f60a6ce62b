package kozuch

import (
	"encoding/binary"
	"fmt"

	"codecomp/internal/bitio"
	"codecomp/internal/huffman"
	"codecomp/internal/romimg"
)

// Image serialization, inside the shared romimg envelope (magic "KZHF",
// CRC) and ending in the shared romimg LAT. Body (big-endian):
//
//	blockSize u16 | origSize u32 | numBlocks u32
//	128 bytes of 4-bit code lengths
//	LAT + payload (romimg)

// Magic begins every serialized byte-Huffman image.
const Magic = "KZHF"

const kzVersion = 1

// Marshal serializes the compressed image.
func (c *Compressed) Marshal() []byte {
	out := romimg.Begin(Magic, kzVersion)
	out = binary.BigEndian.AppendUint16(out, uint16(c.BlockSize))
	out = binary.BigEndian.AppendUint32(out, uint32(c.OrigSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Blocks)))
	w := bitio.NewWriter(128)
	c.Table.WriteLengths(w)
	out = w.AppendBytes(out)
	return romimg.Seal(romimg.AppendLAT(out, c.Blocks))
}

// Unmarshal reconstructs an image serialized by Marshal.
func Unmarshal(data []byte) (*Compressed, error) {
	r, err := romimg.Open(data, Magic, kzVersion, "kozuch")
	if err != nil {
		return nil, err
	}
	c := &Compressed{}
	if c.BlockSize, err = r.U16(); err != nil {
		return nil, err
	}
	if c.OrigSize, err = r.U32(); err != nil {
		return nil, err
	}
	numBlocks, err := r.U32()
	if err != nil {
		return nil, err
	}
	if c.BlockSize <= 0 {
		return nil, fmt.Errorf("kozuch: invalid block size")
	}
	if want := (c.OrigSize + c.BlockSize - 1) / c.BlockSize; numBlocks != want {
		return nil, fmt.Errorf("kozuch: %d blocks, expected %d", numBlocks, want)
	}
	lengths, err := r.Take(128)
	if err != nil {
		return nil, err
	}
	if c.Table, err = huffman.ReadLengths(bitio.NewReader(lengths), 256); err != nil {
		return nil, err
	}
	if c.Blocks, err = r.LAT(numBlocks); err != nil {
		return nil, err
	}
	return c, nil
}
