package tiering

import (
	"encoding/binary"
	"fmt"

	"codecomp/internal/kozuch"
	"codecomp/internal/rans"
	"codecomp/internal/romimg"
	"codecomp/internal/samc"
)

// Image serialization: the tiered container, inside the shared romimg
// envelope (magic "TIER", CRC). Body (big-endian):
//
//	blockSize u16 | origSize u32 | numBlocks u32 | numTiers u8
//	per tier: formatCode u8 | subLen u32
//	assign: numBlocks bytes (tier index per block)
//	per tier, concatenated: the sub-image bytes —
//	  codec tiers carry their own standard marshaled image (magic, CRC,
//	  model, LAT, payload), so loading dispatches each through
//	  DetectFormat/UnmarshalAny exactly like a standalone upload; the raw
//	  tier carries only a romimg LAT + payload.
//
// Sub-images keep full container geometry with empty payload slots for the
// blocks other tiers own; the nested formats' offset tables represent
// zero-length blocks natively (LAT lo == hi).

// Magic begins every serialized tiered image.
const Magic = "TIER"

const tierVersion = 1

// formatCode maps tier formats to wire codes (their speed rank).
func formatCode(format string) byte { return byte(tierOrder[format]) }

// formatFromCode is the inverse of formatCode.
func formatFromCode(code byte) (string, error) {
	for f, r := range tierOrder {
		if byte(r) == code {
			return f, nil
		}
	}
	return "", fmt.Errorf("tiering: unknown tier format code %d", code)
}

// marshalSub serializes one tier's sub-image.
func (t *subTier) marshalSub() []byte {
	switch t.format {
	case TierRaw:
		return romimg.AppendLAT(nil, t.raw)
	case TierHuffman:
		return t.huff.Marshal()
	case TierSAMC:
		return t.samc.Marshal()
	default:
		return t.rans.Marshal()
	}
}

// Marshal serializes the tiered image. Safe to call concurrently with
// decodes and migrations; the snapshot is taken under the read lock.
func (c *Compressed) Marshal() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := romimg.Begin(Magic, tierVersion)
	out = binary.BigEndian.AppendUint16(out, uint16(c.blockSize))
	out = binary.BigEndian.AppendUint32(out, uint32(c.origSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.assign)))
	out = append(out, byte(len(c.tiers)))
	subs := make([][]byte, len(c.tiers))
	for t := range c.tiers {
		subs[t] = c.tiers[t].marshalSub()
		out = append(out, formatCode(c.tiers[t].format))
		out = binary.BigEndian.AppendUint32(out, uint32(len(subs[t])))
	}
	out = append(out, c.assign...)
	for _, sub := range subs {
		out = append(out, sub...)
	}
	return romimg.Seal(out)
}

// Unmarshal reconstructs a tiered image serialized by Marshal, validating
// the container CRC, the tier set, every sub-image's own checksum and
// geometry, and that each block's assigned tier actually holds a payload
// for it.
func Unmarshal(data []byte) (*Compressed, error) {
	r, err := romimg.Open(data, Magic, tierVersion, "tiering")
	if err != nil {
		return nil, err
	}
	c := &Compressed{}
	if c.blockSize, err = r.U16(); err != nil {
		return nil, err
	}
	if c.origSize, err = r.U32(); err != nil {
		return nil, err
	}
	numBlocks, err := r.U32()
	if err != nil {
		return nil, err
	}
	if c.blockSize <= 0 {
		return nil, fmt.Errorf("tiering: invalid block size %d", c.blockSize)
	}
	wantBlocks := 0
	if c.origSize > 0 {
		wantBlocks = (c.origSize + c.blockSize - 1) / c.blockSize
	}
	if numBlocks != wantBlocks {
		return nil, fmt.Errorf("tiering: %d blocks for %d bytes at block size %d", numBlocks, c.origSize, c.blockSize)
	}
	numTiers, err := r.U8()
	if err != nil {
		return nil, err
	}
	if numTiers < 1 || numTiers > 4 {
		return nil, fmt.Errorf("tiering: %d tiers outside [1,4]", numTiers)
	}
	formats := make([]string, numTiers)
	subLens := make([]int, numTiers)
	prevRank := -1
	for t := 0; t < numTiers; t++ {
		code, err := r.U8()
		if err != nil {
			return nil, err
		}
		if formats[t], err = formatFromCode(byte(code)); err != nil {
			return nil, err
		}
		if code <= prevRank {
			return nil, fmt.Errorf("tiering: tiers not ordered fastest to densest")
		}
		prevRank = code
		if subLens[t], err = r.U32(); err != nil {
			return nil, err
		}
	}
	assignBytes, err := r.Take(numBlocks)
	if err != nil {
		return nil, err
	}
	c.assign = append([]uint8(nil), assignBytes...)
	for i, a := range c.assign {
		if int(a) >= numTiers {
			return nil, fmt.Errorf("tiering: block %d assigned to tier %d of %d", i, a, numTiers)
		}
	}

	for t := 0; t < numTiers; t++ {
		sub, err := r.Take(subLens[t])
		if err != nil {
			return nil, err
		}
		st := subTier{format: formats[t]}
		switch formats[t] {
		case TierRaw:
			if st.raw, err = unmarshalRaw(sub, numBlocks, c.blockSize, c.origSize); err != nil {
				return nil, err
			}
		case TierHuffman:
			st.huff, err = kozuch.Unmarshal(sub)
			if err == nil && (st.huff.BlockSize != c.blockSize || st.huff.OrigSize != c.origSize) {
				err = fmt.Errorf("geometry %d/%d does not match container %d/%d",
					st.huff.BlockSize, st.huff.OrigSize, c.blockSize, c.origSize)
			}
		case TierSAMC:
			st.samc, err = samc.Unmarshal(sub)
			if err == nil && (st.samc.BlockSize != c.blockSize || st.samc.OrigSize != c.origSize) {
				err = fmt.Errorf("geometry %d/%d does not match container %d/%d",
					st.samc.BlockSize, st.samc.OrigSize, c.blockSize, c.origSize)
			}
		case TierRANS:
			st.rans, err = rans.Unmarshal(sub)
			if err == nil && (st.rans.BlockSize != c.blockSize || st.rans.OrigSize != c.origSize) {
				err = fmt.Errorf("geometry %d/%d does not match container %d/%d",
					st.rans.BlockSize, st.rans.OrigSize, c.blockSize, c.origSize)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tiering: %s tier: %w", formats[t], err)
		}
		c.tiers = append(c.tiers, st)
	}
	if n := r.Len(); n != 0 {
		return nil, fmt.Errorf("tiering: %d trailing bytes", n)
	}
	// Every block's assigned tier must actually hold its payload: all codec
	// encodes emit at least one byte per block, and the raw tier stores the
	// block verbatim.
	for i, a := range c.assign {
		pl := c.tiers[a].payloads()
		if len(pl) != numBlocks {
			return nil, fmt.Errorf("tiering: %s tier has %d blocks, container %d", c.tiers[a].format, len(pl), numBlocks)
		}
		if n := len(pl[i]); n == 0 || (c.tiers[a].format == TierRaw && n != c.blockOrigLen(i)) {
			return nil, fmt.Errorf("tiering: block %d assigned to %s tier without payload", i, c.tiers[a].format)
		}
	}
	return c, nil
}

// unmarshalRaw parses the raw tier's LAT + payload, requiring every entry
// to be empty or exactly the block's decoded length.
func unmarshalRaw(sub []byte, numBlocks, blockSize, origSize int) ([][]byte, error) {
	raw, err := romimg.NewReader(sub, "tiering: raw tier").LAT(numBlocks)
	if err != nil {
		return nil, err
	}
	for i, b := range raw {
		wantLen := blockSize
		if (i+1)*blockSize > origSize {
			wantLen = origSize - i*blockSize
		}
		if len(b) != 0 && len(b) != wantLen {
			return nil, fmt.Errorf("tiering: raw tier: block %d holds %d bytes, want 0 or %d", i, len(b), wantLen)
		}
	}
	return raw, nil
}
