package samc

import (
	"encoding/binary"
	"fmt"

	"codecomp/internal/markov"
	"codecomp/internal/romimg"
)

// Image serialization: the byte format a real system would burn into ROM,
// inside the shared romimg envelope (magic "SAMC", CRC) and ending in the
// shared romimg LAT. Body (all integers big-endian):
//
//	blockSize u16 | wordBytes u8
//	origSize u32 | numBlocks u32
//	divisionLen u16 | division (width u8, numGroups u8, then per group:
//	   len u8 + positions u8...)
//	modelLen u32 | model (markov.Model.Serialize)
//	LAT + payload (romimg)

// Magic begins every serialized SAMC image.
const Magic = "SAMC"

const version = 1

// Marshal serializes the compressed image.
func (c *Compressed) Marshal() []byte {
	out := romimg.Begin(Magic, version)
	out = binary.BigEndian.AppendUint16(out, uint16(c.BlockSize))
	out = append(out, byte(c.WordBytes))
	out = binary.BigEndian.AppendUint32(out, uint32(c.OrigSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Blocks)))

	// Division.
	var div []byte
	div = append(div, byte(c.Division.Width), byte(len(c.Division.Groups)))
	for _, g := range c.Division.Groups {
		div = append(div, byte(len(g)))
		for _, pos := range g {
			div = append(div, byte(pos))
		}
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(div)))
	out = append(out, div...)

	// Model.
	model := c.Model.Serialize()
	out = binary.BigEndian.AppendUint32(out, uint32(len(model)))
	out = append(out, model...)

	return romimg.Seal(romimg.AppendLAT(out, c.Blocks))
}

// Unmarshal reconstructs an image serialized by Marshal.
func Unmarshal(data []byte) (*Compressed, error) {
	r, err := romimg.Open(data, Magic, version, "samc")
	if err != nil {
		return nil, err
	}
	c := &Compressed{}
	if c.BlockSize, err = r.U16(); err != nil {
		return nil, err
	}
	if c.WordBytes, err = r.U8(); err != nil {
		return nil, err
	}
	if c.OrigSize, err = r.U32(); err != nil {
		return nil, err
	}
	numBlocks, err := r.U32()
	if err != nil {
		return nil, err
	}
	if c.BlockSize <= 0 || c.WordBytes <= 0 || c.BlockSize%c.WordBytes != 0 {
		return nil, fmt.Errorf("samc: invalid geometry %d/%d", c.BlockSize, c.WordBytes)
	}
	wantBlocks := (c.OrigSize + c.BlockSize - 1) / c.BlockSize
	if numBlocks != wantBlocks {
		return nil, fmt.Errorf("samc: %d blocks for %d bytes at block size %d", numBlocks, c.OrigSize, c.BlockSize)
	}

	divLen, err := r.U16()
	if err != nil {
		return nil, err
	}
	div, err := r.Take(divLen)
	if err != nil {
		return nil, err
	}
	if len(div) < 2 {
		return nil, fmt.Errorf("samc: truncated division")
	}
	c.Division.Width = int(div[0])
	groups := int(div[1])
	p := 2
	for g := 0; g < groups; g++ {
		if p >= len(div) {
			return nil, fmt.Errorf("samc: truncated division group %d", g)
		}
		n := int(div[p])
		p++
		if p+n > len(div) {
			return nil, fmt.Errorf("samc: truncated division group %d", g)
		}
		grp := make([]int, n)
		for i := 0; i < n; i++ {
			grp[i] = int(div[p+i])
		}
		p += n
		c.Division.Groups = append(c.Division.Groups, grp)
	}
	if err := c.Division.Validate(); err != nil {
		return nil, fmt.Errorf("samc: %w", err)
	}
	if c.Division.Width != 8*c.WordBytes {
		return nil, fmt.Errorf("samc: division width %d vs word %d bytes", c.Division.Width, c.WordBytes)
	}

	modelLen, err := r.U32()
	if err != nil {
		return nil, err
	}
	modelBytes, err := r.Take(modelLen)
	if err != nil {
		return nil, err
	}
	if c.Model, err = markov.Deserialize(modelBytes); err != nil {
		return nil, err
	}

	if c.Blocks, err = r.LAT(numBlocks); err != nil {
		return nil, err
	}
	return c, nil
}
