package sadc

import (
	"encoding/binary"
	"fmt"

	"codecomp/internal/bitio"
	"codecomp/internal/huffman"
	"codecomp/internal/romimg"
)

// Image serialization: the ROM layout of a SADC-compressed program, inside
// the shared romimg envelope (magic "SADC", CRC). Each block carries its
// own segment lengths in place of a LAT. Body (big-endian):
//
//	isa tag u8 | blockSize u16
//	origSize u32 | numBlocks u32
//	auxLen u16 | adapter aux (x86 opcode table)
//	dict: count u16, then per entry: itemCount u8, per item:
//	    op u16 | flags u8 | fused streams (len u8 + bytes each, per flag bit)
//	4 Huffman tables: 128 bytes of 4-bit code lengths each
//	blocks: per block: tokens u16 | origBytes u16 | 4 × (segLen u16 + bytes)

// Magic begins every serialized SADC image.
const Magic = "SADC"

const sadcVersion = 1

// Marshal serializes the compressed image.
func (c *Compressed) Marshal() []byte {
	out := romimg.Begin(Magic, sadcVersion)
	out = append(out, c.adapter.Tag())
	out = binary.BigEndian.AppendUint16(out, uint16(c.BlockSize))
	out = binary.BigEndian.AppendUint32(out, uint32(c.OrigSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Blocks)))

	aux := c.adapter.MarshalAux()
	out = binary.BigEndian.AppendUint16(out, uint16(len(aux)))
	out = append(out, aux...)

	out = binary.BigEndian.AppendUint16(out, uint16(len(c.Dict)))
	for i := range c.Dict {
		e := &c.Dict[i]
		out = append(out, byte(len(e.Items)))
		for ii := range e.Items {
			it := &e.Items[ii]
			out = binary.BigEndian.AppendUint16(out, it.Op)
			var flags byte
			if it.Regs != nil {
				flags |= 1
			}
			if it.Imm != nil {
				flags |= 2
			}
			if it.Limm != nil {
				flags |= 4
			}
			out = append(out, flags)
			for _, f := range [][]byte{it.Regs, it.Imm, it.Limm} {
				if f != nil {
					out = append(out, byte(len(f)))
					out = append(out, f...)
				}
			}
		}
	}

	w := bitio.NewWriter(128)
	for _, tbl := range c.Tables {
		w.Reset()
		tbl.WriteLengths(w)
		out = w.AppendBytes(out)
	}

	for i := range c.Blocks {
		blk := &c.Blocks[i]
		out = binary.BigEndian.AppendUint16(out, uint16(blk.Tokens))
		out = binary.BigEndian.AppendUint16(out, uint16(blk.Bytes))
		for _, seg := range blk.Seg {
			out = binary.BigEndian.AppendUint16(out, uint16(len(seg)))
			out = append(out, seg...)
		}
	}
	return romimg.Seal(out)
}

// Unmarshal reconstructs an image serialized by Marshal.
func Unmarshal(data []byte) (*Compressed, error) {
	r, err := romimg.Open(data, Magic, sadcVersion, "sadc")
	if err != nil {
		return nil, err
	}
	tag, err := r.U8()
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

	auxLen, err := r.U16()
	if err != nil {
		return nil, err
	}
	aux, err := r.Take(auxLen)
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		c.adapter = MIPSAdapter{}
	case 1:
		a, err := unmarshalX86Adapter(aux)
		if err != nil {
			return nil, err
		}
		c.adapter = a
	default:
		return nil, fmt.Errorf("sadc: unknown ISA tag %d", tag)
	}

	dictLen, err := r.U16()
	if err != nil {
		return nil, err
	}
	if dictLen > 1<<12 {
		return nil, fmt.Errorf("sadc: implausible dictionary size %d", dictLen)
	}
	for e := 0; e < dictLen; e++ {
		itemCount, err := r.U8()
		if err != nil {
			return nil, err
		}
		if itemCount == 0 {
			return nil, fmt.Errorf("sadc: empty dictionary entry %d", e)
		}
		entry := Entry{Items: make([]Item, itemCount)}
		for i := 0; i < itemCount; i++ {
			op, err := r.U16()
			if err != nil {
				return nil, err
			}
			flags, err := r.U8()
			if err != nil {
				return nil, err
			}
			it := Item{Op: uint16(op)}
			for bit, dst := range []*[]byte{&it.Regs, &it.Imm, &it.Limm} {
				if flags&(1<<bit) == 0 {
					continue
				}
				l, err := r.U8()
				if err != nil {
					return nil, err
				}
				b, err := r.Take(l)
				if err != nil {
					return nil, err
				}
				*dst = append([]byte(nil), b...)
			}
			entry.Items[i] = it
		}
		c.Dict = append(c.Dict, entry)
	}

	for s := range c.Tables {
		raw, err := r.Take(128)
		if err != nil {
			return nil, err
		}
		tbl, err := huffman.ReadLengths(bitio.NewReader(raw), 256)
		if err != nil {
			return nil, fmt.Errorf("sadc: stream %d table: %w", s, err)
		}
		c.Tables[s] = tbl
	}

	for b := 0; b < numBlocks; b++ {
		var blk Block
		if blk.Tokens, err = r.U16(); err != nil {
			return nil, err
		}
		if blk.Bytes, err = r.U16(); err != nil {
			return nil, err
		}
		for s := range blk.Seg {
			l, err := r.U16()
			if err != nil {
				return nil, err
			}
			seg, err := r.Take(l)
			if err != nil {
				return nil, err
			}
			blk.Seg[s] = seg
		}
		c.Blocks = append(c.Blocks, blk)
	}
	if n := r.Len(); n != 0 {
		return nil, fmt.Errorf("sadc: %d trailing bytes", n)
	}
	return c, nil
}
