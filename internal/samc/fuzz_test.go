package samc

import (
	"bytes"
	"testing"

	"codecomp/internal/streams"
)

// fuzzOptions maps an option byte onto the kernel's shapes: bit 0
// Connected, bit 1 Quantize, bits 2-3 WordBytes (1, 2, 4, 4), bits 4-5
// BlockSize (16, 32, 64, 64), and bit 6 a non-contiguous division of
// three unequal interleaved streams, so the kernel's scatter and odd
// tree widths are reached.
func fuzzOptions(b byte) Options {
	opts := Options{
		Connected: b&1 != 0,
		Quantize:  b&2 != 0,
		WordBytes: []int{1, 2, 4, 4}[b>>2&3],
		BlockSize: []int{16, 32, 64, 64}[b>>4&3],
	}
	if b&64 != 0 {
		width := 8 * opts.WordBytes
		d := streams.Division{Width: width, Groups: make([][]int, 3)}
		for p := width - 1; p >= 0; p-- {
			d.Groups[p%3] = append(d.Groups[p%3], p)
		}
		opts.Division = d
	}
	return opts
}

// FuzzAppendBlockMatchesReference pins the decode kernel to the
// bit-serial reference decoder on arbitrary word-aligned text: every
// block through AppendBlock, and every prefix length of every block
// through AppendBlockPrefix, must equal blockReference byte for byte.
func FuzzAppendBlockMatchesReference(f *testing.F) {
	text := testText()
	for _, b := range []byte{0, 1, 2, 3, 4, 8, 16, 32, 64, 65, 69, 72, 91, 127} {
		f.Add(text[:1024], b)
	}
	// Whole-text seeds in the default shape (24: 4-byte words, 32-byte
	// blocks), connected, quantized and divided: a model trained on more
	// text has the skewed predictions that reach the midpoint's m == lo
	// fixup.
	for _, b := range []byte{24, 25, 26, 88} {
		f.Add(text, b)
	}
	f.Add([]byte{}, byte(0))
	f.Add(bytes.Repeat([]byte{0xff}, 100), byte(5))
	f.Fuzz(func(t *testing.T, text []byte, optByte byte) {
		opts := fuzzOptions(optByte)
		if len(text) > 1<<15 {
			text = text[:1<<15]
		}
		text = text[:len(text)/opts.WordBytes*opts.WordBytes]
		c, err := Compress(text, opts)
		if err != nil {
			t.Fatalf("compress with %+v: %v", opts, err)
		}
		dst := []byte("prefix")
		for i := 0; i < c.NumBlocks(); i++ {
			want, err := c.blockReference(i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.AppendBlock(dst[:6], i)
			if err != nil || !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
				t.Fatalf("opts %+v block %d: AppendBlock differs from reference (%v)", opts, i, err)
			}
			for n := 0; n <= len(want); n++ {
				got, err := c.AppendBlockPrefix(nil, i, n)
				if err != nil || !bytes.Equal(got, want[:n]) {
					t.Fatalf("opts %+v block %d: %d-byte prefix differs from reference (%v)", opts, i, n, err)
				}
			}
		}
	})
}
