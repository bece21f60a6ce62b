package rans

import (
	"bytes"
	"fmt"
	"testing"

	"codecomp/internal/bitio"
)

// encodeReference is the original encoder, kept as the differential
// reference for EncodeBlock and as the baseline its benchmark is measured
// against: it gathers the block's nibbles and contexts into slices, pushes
// the renorm nibbles onto a growing stack and writes the payload through
// a bitio.Writer.
func (c *Compressed) encodeReference(block []byte) ([]byte, error) {
	if len(block) > c.BlockSize {
		return nil, fmt.Errorf("rans: block length %d exceeds block size %d", len(block), c.BlockSize)
	}
	nibs := make([]uint32, 0, 2*len(block))
	ctxs := make([]uint32, 0, 2*len(block))
	prev := uint32(0)
	for _, b := range block {
		for _, nib := range [2]uint32{uint32(b >> 4), uint32(b & 15)} {
			ctxs = append(ctxs, ctxOf(len(nibs), prev))
			nibs = append(nibs, nib)
			prev = nib
		}
	}
	mask := uint32(c.Streams - 1)
	var states [8]uint32
	for k := 0; k < c.Streams; k++ {
		states[k] = low
	}
	var stack []byte // renorm nibbles in emit (reverse) order
	for j := len(nibs) - 1; j >= 0; j-- {
		f := uint32(c.Freq[ctxs[j]][nibs[j]])
		if f == 0 {
			return nil, fmt.Errorf("rans: nibble %x has zero frequency in context %d", nibs[j], ctxs[j])
		}
		x := states[uint32(j)&mask]
		for x >= f<<4 {
			stack = append(stack, byte(x&15))
			x >>= 4
		}
		states[uint32(j)&mask] = (x/f)<<scaleBits + uint32(c.Cum[ctxs[j]][nibs[j]]) + x%f
	}
	w := bitio.NewWriter(c.BlockSize)
	for k := 0; k < c.Streams; k++ {
		w.WriteBits(uint64(states[k]), stateBits)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		w.WriteBits(uint64(stack[i]), 4)
	}
	return w.AppendBytes(make([]byte, 0, w.Len())), nil
}

// fuzzImage trains a model on text at streams from the fuzzer's
// selector byte and returns it with its blocks coded.
func fuzzImage(t *testing.T, text []byte, sel uint8) *Compressed {
	t.Helper()
	streams := []int{1, 2, 4, 8}[sel%4]
	blockSize := []int{4, 32, 128, 1024}[sel/4%4]
	c, err := Compress(text, Options{BlockSize: blockSize, Streams: streams})
	if err != nil {
		t.Fatalf("compress at N=%d, block size %d: %v", streams, blockSize, err)
	}
	return c
}

// FuzzEncodeBlockMatchesReference pins EncodeBlock to the original
// encoder byte for byte at every interleaving factor and block size the
// selector picks: on every block of the text, where both must succeed,
// and on its bitwise complement, where a nibble the model never saw in
// that context must fail both.
func FuzzEncodeBlockMatchesReference(f *testing.F) {
	text := mipsText()
	for sel := 0; sel < 16; sel++ {
		f.Add(text[:1000], uint8(sel))
	}
	f.Add(text, uint8(9))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(7))
	f.Fuzz(func(t *testing.T, text []byte, sel uint8) {
		if len(text) > 1<<14 {
			text = text[:1<<14]
		}
		c := fuzzImage(t, text, sel)
		for i := 0; i < c.NumBlocks(); i++ {
			block := text[i*c.BlockSize : min((i+1)*c.BlockSize, len(text))]
			want, wantErr := c.encodeReference(block)
			got, err := c.EncodeBlock(block)
			if err != nil || wantErr != nil || !bytes.Equal(got, want) || !bytes.Equal(c.Blocks[i], want) {
				t.Fatalf("N=%d block %d: payload differs from the reference (%v, %v)", c.Streams, i, err, wantErr)
			}
			flipped := make([]byte, len(block))
			for k, b := range block {
				flipped[k] = ^b
			}
			want, wantErr = c.encodeReference(flipped)
			got, err = c.EncodeBlock(flipped)
			if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("N=%d block %d: complement payload differs from the reference (%v, %v)", c.Streams, i, err, wantErr)
			}
		}
	})
}

// FuzzAppendBlockMatchesReference feeds arbitrary payloads, truncated,
// corrupt or trailing junk, to the fast decoder and the scalar reference
// at every interleaving factor, in a full block and in a short last one:
// both must return the same bytes, or both must fail, and neither may
// panic.
func FuzzAppendBlockMatchesReference(f *testing.F) {
	text := mipsText()
	c, err := Compress(text[:1000], Options{})
	if err != nil {
		f.Fatal(err)
	}
	for sel := 0; sel < 8; sel++ {
		f.Add(c.Blocks[1], uint8(sel))
		f.Add(c.Blocks[1][:len(c.Blocks[1])/2], uint8(sel))
	}
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 200), uint8(5))
	f.Add([]byte{0x10, 0x01, 0x00}, uint8(4))
	images := make([]*Compressed, 4)
	for k, n := range []int{1, 2, 4, 8} {
		// Two blocks: a full 128-byte one and a 36-byte last one.
		if images[k], err = Compress(text[:164], Options{Streams: n}); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, sel uint8) {
		c := images[sel%4]
		i := int(sel/4) % 2
		saved := c.Blocks[i]
		c.Blocks[i] = payload
		defer func() { c.Blocks[i] = saved }()
		want, wantErr := c.blockReference(i)
		got, err := c.AppendBlock([]byte("dst"), i)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("N=%d block %d: AppendBlock err %v, reference err %v", c.Streams, i, err, wantErr)
		}
		if err == nil && (string(got[:3]) != "dst" || !bytes.Equal(got[3:], want)) {
			t.Fatalf("N=%d block %d: AppendBlock differs from the reference", c.Streams, i)
		}
	})
}
