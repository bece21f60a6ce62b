package samc

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"codecomp/internal/arith"
	"codecomp/internal/markov"
	"codecomp/internal/streams"
)

// fuzzOptions maps an option byte onto the kernels' shapes: bit 0
// Connected, bit 1 Quantize, bits 2-3 WordBytes (1, 2, 4, 4), bits 4-5
// BlockSize (16, 32, 64, 64), bit 6 a non-contiguous division of three
// unequal interleaved streams, so the kernels' gather and scatter and
// odd tree widths are reached, and bit 7 a 6-bit ProbPrecision.
func fuzzOptions(b byte) Options {
	opts := Options{
		Connected: b&1 != 0,
		Quantize:  b&2 != 0,
		WordBytes: []int{1, 2, 4, 4}[b>>2&3],
		BlockSize: []int{16, 32, 64, 64}[b>>4&3],
	}
	if b&128 != 0 {
		opts.ProbPrecision = 6
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

// pairSeedImages are the images FuzzAppendBlockPairMatchesSingle takes
// its models from: unconnected, connected, quantized, a streams.Optimize
// division and byte mode, each trained on testText.
var pairSeedImages = sync.OnceValues(func() ([]*Compressed, error) {
	text := testText()
	var out []*Compressed
	for _, opts := range []Options{
		{},
		{Connected: true},
		{Quantize: true},
		{Division: optimizedDivision(text), Connected: true},
		{WordBytes: 1},
	} {
		c, err := Compress(text, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
})

// optimizedDivision is a streams.Optimize division of 4-byte-word text.
func optimizedDivision(text []byte) streams.Division {
	words := make([]uint64, 0, len(text)/4)
	for w := 0; w+4 <= len(text); w += 4 {
		words = append(words, loadWord(text[w:w+4], nil, true))
	}
	return streams.Optimize(words, 32, 4, streams.Options{Seed: 1, Iterations: 40, MaxSample: 1024, Connected: true}).Division
}

// FuzzAppendBlockPairMatchesSingle pins the two-lane kernel to two
// AppendBlock calls on arbitrary payload bytes in both lanes, decoded
// against a seed model picked by model. The second block is tail%words+1
// words long, so a full block pairs through the two-lane loop and a
// short last block through its two-single fallback.
func FuzzAppendBlockPairMatchesSingle(f *testing.F) {
	images, err := pairSeedImages()
	if err != nil {
		f.Fatal(err)
	}
	for m, c := range images {
		full := byte(c.BlockSize/c.WordBytes - 1)
		f.Add(c.Blocks[0], c.Blocks[1], byte(m), full)
		f.Add(c.Blocks[2], c.Blocks[7], byte(m), full/2)
	}
	f.Add([]byte{}, []byte{}, byte(0), byte(7))
	f.Add(bytes.Repeat([]byte{0xff}, 40), []byte{0}, byte(1), byte(7))
	f.Fuzz(func(t *testing.T, a, b []byte, model, tail byte) {
		if len(a) > 256 {
			a = a[:256]
		}
		if len(b) > 256 {
			b = b[:256]
		}
		m := images[int(model)%len(images)]
		words := m.BlockSize / m.WordBytes
		c := &Compressed{
			Model: m.Model, Division: m.Division,
			BlockSize: m.BlockSize, WordBytes: m.WordBytes,
			OrigSize: m.BlockSize + (int(tail)%words+1)*m.WordBytes,
			Blocks:   [][]byte{a, b},
		}
		wantA, _ := c.AppendBlock([]byte("a"), 0)
		wantB, _ := c.AppendBlock([]byte("bb"), 1)
		gotA, gotB, err := c.AppendBlockPair([]byte("a"), []byte("bb"), 0)
		if err != nil || !bytes.Equal(gotA, wantA) || !bytes.Equal(gotB, wantB) {
			t.Fatalf("model %d, %d-byte second block: pair differs from two AppendBlock calls (%v)",
				int(model)%len(images), c.OrigSize-c.BlockSize, err)
		}
	})
}

// encodeReference is the original bit-serial encoder, kept as the
// differential reference for EncodeBlock and as the baseline the
// benchmark harness measures its speedup against: a heap-allocated
// arith.Encoder and markov.Walker, and each word's bits staged in an
// []int by Division.Extract, one EncodeBit per bit.
func (c *Compressed) encodeReference(block []byte) []byte {
	enc := arith.NewEncoder(c.BlockSize)
	walker := c.Model.NewWalker()
	bits := make([]int, 0, c.Division.Width)
	for w := 0; w < len(block); w += c.WordBytes {
		var word uint64
		for _, b := range block[w : w+c.WordBytes] {
			word = word<<8 | uint64(b)
		}
		bits = c.Division.Extract(word, bits[:0])
		for _, b := range bits {
			enc.EncodeBit(b, walker.P0())
			walker.Advance(b)
		}
	}
	return append([]byte(nil), enc.Flush()...)
}

// trainReference is the original per-bit trainer: every bit of the text
// in stream order counted at its tree node (depth, path) as the walk
// steps, then frozen with Laplace smoothing, quantized or reduced to the
// stated precision. It returns the model's serialized bytes.
func trainReference(t *testing.T, text []byte, opts Options) []byte {
	opts, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	widths := opts.Division.Widths()
	nCtx := 1
	if opts.Connected {
		nCtx = 2
	}
	counts := make([][][][2]uint64, len(widths))
	for s, k := range widths {
		counts[s] = make([][][2]uint64, nCtx)
		for ctx := range counts[s] {
			counts[s][ctx] = make([][2]uint64, 1<<k-1)
		}
	}
	var stream, depth, path, prev int
	forEachBlock(text, opts.BlockSize, func(block []byte) {
		stream, depth, path, prev = 0, 0, 0, 0
		for w := 0; w < len(block); w += opts.WordBytes {
			var word uint64
			for _, b := range block[w : w+opts.WordBytes] {
				word = word<<8 | uint64(b)
			}
			for _, b := range opts.Division.Extract(word, nil) {
				ctx := 0
				if opts.Connected {
					ctx = prev
				}
				counts[stream][ctx][1<<depth-1+path][b]++
				if depth++; depth == widths[stream] {
					prev, stream, depth, path = b, (stream+1)%len(widths), 0, 0
				} else {
					path = path<<1 | b
				}
			}
		}
	})
	// Serialized model layout: u16 stream count, the widths, connected
	// flag, stored precision, then every probability as a u16.
	img := binary.BigEndian.AppendUint16(nil, uint16(len(widths)))
	for _, k := range widths {
		img = append(img, byte(k))
	}
	prec := byte(arith.ProbBits)
	if opts.Quantize {
		prec = 5
	}
	img = append(img, byte(nCtx-1), prec)
	for _, ctxs := range counts {
		for _, nodes := range ctxs {
			for _, c := range nodes {
				p0 := arith.ClampProb(int((c[0] + 1) * arith.ProbOne / (c[0] + c[1] + 2)))
				if opts.Quantize {
					p0 = arith.QuantizePow2(p0)
				}
				img = binary.BigEndian.AppendUint16(img, p0)
			}
		}
	}
	m, err := markov.Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Quantize {
		m.ReducePrecision(opts.ProbPrecision)
	}
	return m.Serialize()
}

// FuzzEncodeBlockMatchesReference pins the word-at-a-time trainer and
// encode kernel to the per-bit reference on arbitrary word-aligned text:
// Compress's model must serialize exactly as trainReference's, and every
// block's payload, from Compress and from EncodeBlock, must equal
// encodeReference's byte for byte, as must the payload of the block's
// complement, content unlike the training text.
func FuzzEncodeBlockMatchesReference(f *testing.F) {
	text := testText()
	for _, b := range []byte{0, 1, 2, 3, 4, 8, 16, 32, 64, 65, 69, 72, 91, 127, 128, 153, 249} {
		f.Add(text[:1024], b)
	}
	// Whole-text seeds in the default shape (24: 4-byte words, 32-byte
	// blocks), connected, quantized, divided and at 6-bit precision.
	for _, b := range []byte{24, 25, 26, 88, 153} {
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
		if !bytes.Equal(c.Model.Serialize(), trainReference(t, text, opts)) {
			t.Fatalf("opts %+v: model differs from the per-bit trainer's", opts)
		}
		i := 0
		forEachBlock(text, c.BlockSize, func(block []byte) {
			want := c.encodeReference(block)
			got, err := c.EncodeBlock(block)
			if err != nil || !bytes.Equal(got, want) || !bytes.Equal(c.Blocks[i], want) {
				t.Fatalf("opts %+v block %d: payload differs from reference (%v)", opts, i, err)
			}
			flipped := make([]byte, len(block))
			for j, b := range block {
				flipped[j] = ^b
			}
			if got, _ := c.EncodeBlock(flipped); !bytes.Equal(got, c.encodeReference(flipped)) {
				t.Fatalf("opts %+v block %d: complement payload differs from reference", opts, i)
			}
			i++
		})
	})
}
