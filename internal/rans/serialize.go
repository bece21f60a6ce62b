package rans

import (
	"encoding/binary"
	"fmt"

	"codecomp/internal/bitio"
	"codecomp/internal/romimg"
)

// Image serialization: the ROM layout for an interleaved-rANS image, inside
// the shared romimg envelope (magic "RANS", CRC) and ending in the shared
// romimg LAT. Body (all integers big-endian):
//
//	blockSize u16 | streams u8 | origSize u32 | numBlocks u32
//	model: 128 contexts × 15 frequencies × (scaleBits+1) bits, packed; each
//	   context's 16th frequency is implied by the fixed total m, which
//	   doubles as a structural check (the first 15 may not exceed m)
//	LAT + payload (romimg)

// Magic begins every serialized rANS image.
const Magic = "RANS"

const version = 1

// Marshal serializes the compressed image.
func (c *Compressed) Marshal() []byte {
	out := romimg.Begin(Magic, version)
	out = binary.BigEndian.AppendUint16(out, uint16(c.BlockSize))
	out = append(out, byte(c.Streams))
	out = binary.BigEndian.AppendUint32(out, uint32(c.OrigSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Blocks)))

	w := bitio.NewWriter(c.TableBytes())
	for ctx := range c.Freq {
		for s := 0; s < numSym-1; s++ {
			w.WriteBits(uint64(c.Freq[ctx][s]), freqFieldBits)
		}
	}
	out = w.AppendBytes(out)
	return romimg.Seal(romimg.AppendLAT(out, c.Blocks))
}

// Unmarshal reconstructs an image serialized by Marshal.
func Unmarshal(data []byte) (*Compressed, error) {
	r, err := romimg.Open(data, Magic, version, "rans")
	if err != nil {
		return nil, err
	}
	c := &Compressed{}
	if c.BlockSize, err = r.U16(); err != nil {
		return nil, err
	}
	if c.Streams, err = r.U8(); err != nil {
		return nil, err
	}
	if c.OrigSize, err = r.U32(); err != nil {
		return nil, err
	}
	numBlocks, err := r.U32()
	if err != nil {
		return nil, err
	}
	if c.BlockSize < 4 || c.BlockSize%4 != 0 {
		return nil, fmt.Errorf("rans: invalid block size %d", c.BlockSize)
	}
	switch c.Streams {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("rans: streams %d not in {1,2,4,8}", c.Streams)
	}
	wantBlocks := 0
	if c.OrigSize > 0 {
		wantBlocks = (c.OrigSize + c.BlockSize - 1) / c.BlockSize
	}
	if numBlocks != wantBlocks {
		return nil, fmt.Errorf("rans: %d blocks for %d bytes at block size %d", numBlocks, c.OrigSize, c.BlockSize)
	}
	model, err := r.Take(c.TableBytes())
	if err != nil {
		return nil, err
	}
	br := bitio.NewReader(model)
	for ctx := range c.Freq {
		sum := 0
		for s := 0; s < numSym-1; s++ {
			f, err := br.ReadBits(freqFieldBits)
			if err != nil {
				return nil, err
			}
			c.Freq[ctx][s] = uint16(f)
			sum += int(f)
		}
		if sum > m {
			return nil, fmt.Errorf("rans: context %d frequencies sum to %d > %d", ctx, sum, m)
		}
		c.Freq[ctx][numSym-1] = uint16(m - sum)
	}

	if c.Blocks, err = r.LAT(numBlocks); err != nil {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}
