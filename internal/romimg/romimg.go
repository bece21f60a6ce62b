// Package romimg is the container every block-addressable ROM image format
// shares (SAMC, SADC, byte-Huffman, rANS and the tiered container): the
// checksummed envelope, a bounds-checked big-endian field reader, and the
// line address table (LAT) through which a refill finds each compressed
// block. The formats own their headers, models and validation; this
// package owns only the bytes they all lay out the same way.
//
// Envelope (all integers big-endian):
//
//	magic [4]byte | version u8 | crc32 u32 (IEEE, over every byte after it)
//	format body
//
// LAT, where a format stores one (always as the last field of its body):
//
//	numBlocks+1 offsets u32 (relative to the payload start) | payload
//
// Block i is payload[offset[i]:offset[i+1]]; an empty block (offset[i] ==
// offset[i+1]) is legal, which the tiered container relies on.
package romimg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// headerLen is the envelope's size: magic, version and CRC.
const headerLen = 9

// Begin starts an image: it returns the envelope header with a CRC
// placeholder, for the format to append its body to and then Seal.
func Begin(magic string, version byte) []byte {
	return append([]byte(magic), version, 0, 0, 0, 0)
}

// Seal fills in the CRC of an image started by Begin and returns it.
func Seal(img []byte) []byte {
	binary.BigEndian.PutUint32(img[5:], crc32.ChecksumIEEE(img[headerLen:]))
	return img
}

// AppendLAT appends the offset table of blocks, then the blocks
// themselves.
func AppendLAT(dst []byte, blocks [][]byte) []byte {
	var off uint32
	for _, b := range blocks {
		dst = binary.BigEndian.AppendUint32(dst, off)
		off += uint32(len(b))
	}
	dst = binary.BigEndian.AppendUint32(dst, off)
	for _, b := range blocks {
		dst = append(dst, b...)
	}
	return dst
}

// Reader reads an image's fields in order, failing instead of reading
// past the end. Errors carry the reader's prefix ("samc", "tiering", ...).
type Reader struct {
	data   []byte
	pos    int
	prefix string
}

// NewReader reads data from its first byte; prefix begins every error.
func NewReader(data []byte, prefix string) *Reader {
	return &Reader{data: data, prefix: prefix}
}

// Open checks data's envelope — magic, version, then the CRC over the
// rest — and returns a reader positioned at the format body.
func Open(data []byte, magic string, version byte, prefix string) (*Reader, error) {
	r := NewReader(data, prefix)
	if m, err := r.Take(len(magic)); err != nil || string(m) != magic {
		return nil, fmt.Errorf("%s: bad magic", prefix)
	}
	if v, err := r.U8(); err != nil || v != int(version) {
		return nil, fmt.Errorf("%s: unsupported version %d", prefix, v)
	}
	want, err := r.U32()
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(data[r.pos:]); got != uint32(want) {
		return nil, fmt.Errorf("%s: image checksum mismatch (%08x != %08x)", prefix, got, want)
	}
	return r, nil
}

// Len reports how many unread bytes remain.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Take returns the next n bytes, aliasing the image.
func (r *Reader) Take(n int) ([]byte, error) {
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("%s: truncated image at byte %d (+%d)", r.prefix, r.pos, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// U8 reads one byte.
func (r *Reader) U8() (int, error) {
	b, err := r.Take(1)
	if err != nil {
		return 0, err
	}
	return int(b[0]), nil
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() (int, error) {
	b, err := r.Take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() (int, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// LAT reads the rest of the image as an offset table of numBlocks blocks
// followed by their payload, and returns the blocks, aliasing the image
// (nil for zero blocks). A CRC proves the image intact, not its header
// honest, so the block count is checked against the bytes actually
// present before anything is sized by it.
func (r *Reader) LAT(numBlocks int) ([][]byte, error) {
	rest := r.data[r.pos:]
	if numBlocks < 0 || numBlocks >= len(rest)/4 {
		return nil, fmt.Errorf("%s: truncated LAT (%d blocks)", r.prefix, numBlocks)
	}
	table, payload := rest[:4*(numBlocks+1)], rest[4*(numBlocks+1):]
	r.pos = len(r.data)
	if numBlocks == 0 {
		return nil, nil
	}
	blocks := make([][]byte, numBlocks)
	lo := int(binary.BigEndian.Uint32(table))
	for i := range blocks {
		hi := int(binary.BigEndian.Uint32(table[4*(i+1):]))
		if lo > hi || hi > len(payload) {
			return nil, fmt.Errorf("%s: corrupt LAT entry %d [%d,%d)", r.prefix, i, lo, hi)
		}
		blocks[i] = payload[lo:hi]
		lo = hi
	}
	return blocks, nil
}
