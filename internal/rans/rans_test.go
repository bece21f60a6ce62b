package rans

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codecomp/internal/synth"
)

func mipsText() []byte {
	prof := synth.Profile{Name: "t", KB: 32, FP: 0.2, Reuse: 0.4, SmallImm: 0.7, CallDensity: 0.05, Seed: 7}
	return synth.GenerateMIPS(prof).Text()
}

func TestRoundTrip(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("round trip failed")
	}
	if c.BlockSize != DefaultBlockSize || c.Streams != DefaultStreams {
		t.Fatalf("defaults not applied: block %d streams %d", c.BlockSize, c.Streams)
	}
}

func TestRandomAccess(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, c.NumBlocks() / 2, c.NumBlocks() - 1} {
		blk, err := c.Block(i)
		if err != nil {
			t.Fatalf("Block(%d): %v", i, err)
		}
		lo := i * 64
		hi := min(lo+64, len(text))
		if !bytes.Equal(blk, text[lo:hi]) {
			t.Fatalf("block %d differs from source", i)
		}
	}
	if _, err := c.Block(-1); err == nil {
		t.Fatal("negative block accepted")
	}
	if _, err := c.Block(c.NumBlocks()); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

// TestInterleavedMatchesReference is the bit-exactness gate: for every
// synth profile, both ISA corpora and every interleaving factor, the fused
// table-driven decode must be byte-identical to the scalar reference
// decoder and to the original text.
func TestInterleavedMatchesReference(t *testing.T) {
	for _, name := range []string{"gcc", "go", "compress", "ijpeg", "tomcatv"} {
		prof, ok := synth.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		for _, corpus := range []struct {
			isa  string
			text []byte
		}{
			{"mips", synth.GenerateMIPS(prof).Text()},
			{"x86", synth.GenerateX86(prof).Text()},
		} {
			for _, n := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/N=%d", prof.Name, corpus.isa, n), func(t *testing.T) {
					c, err := Compress(corpus.text, Options{Streams: n})
					if err != nil {
						t.Fatal(err)
					}
					var buf []byte
					for i := 0; i < c.NumBlocks(); i++ {
						want, err := c.blockReference(i)
						if err != nil {
							t.Fatalf("blockReference(%d): %v", i, err)
						}
						buf, err = c.AppendBlock(buf[:0], i)
						if err != nil {
							t.Fatalf("AppendBlock(%d): %v", i, err)
						}
						if !bytes.Equal(buf, want) {
							t.Fatalf("block %d: interleaved decode differs from scalar reference", i)
						}
						lo := i * c.BlockSize
						if !bytes.Equal(want, corpus.text[lo:lo+len(want)]) {
							t.Fatalf("block %d: reference decode differs from source", i)
						}
					}
				})
			}
		}
	}
}

func TestShortLastBlock(t *testing.T) {
	text := mipsText()
	for _, cut := range []int{1, 3, 5, 127} {
		c, err := Compress(text[:len(text)-cut], Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decompress()
		if err != nil || !bytes.Equal(got, text[:len(text)-cut]) {
			t.Fatalf("cut=%d round trip failed: %v", cut, err)
		}
	}
}

func TestEmpty(t *testing.T) {
	c, err := Compress(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 0 {
		t.Fatalf("empty input has %d blocks", c.NumBlocks())
	}
	got, err := c.Decompress()
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decompress: %v", err)
	}
	c2, err := Unmarshal(c.Marshal())
	if err != nil || c2.NumBlocks() != 0 {
		t.Fatalf("empty image does not round-trip marshal: %v", err)
	}
}

func TestBadOptions(t *testing.T) {
	for _, o := range []Options{
		{BlockSize: 3}, {BlockSize: 30}, {BlockSize: 1 << 17}, {Streams: 3}, {Streams: 16},
	} {
		if _, err := Compress(mipsText()[:256], o); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
}

// TestRatioBeatsByteHuffmanClass pins the model's value: the position+
// previous-nibble context must land the synthetic MIPS corpus well under
// the ~0.69 byte-Huffman band, in SAMC's class.
func TestRatioBeatsByteHuffmanClass(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Ratio(); r < 0.30 || r > 0.65 {
		t.Fatalf("ratio %.3f outside the expected (0.30, 0.65) band", r)
	}
}

func TestAppendBlockNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, n := range []int{1, 2, 4, 8} {
		c, err := Compress(mipsText(), Options{Streams: n})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, c.BlockSize)
		var gotErr error
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			dst, gotErr = c.AppendBlock(dst[:0], i%c.NumBlocks())
			i++
		})
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		if allocs != 0 {
			t.Fatalf("N=%d: AppendBlock allocates %.1f times per call, want 0", n, allocs)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		c, err := Compress(data, Options{BlockSize: 32, Streams: 2})
		if err != nil {
			return false
		}
		got, err := c.Decompress()
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRANSRoundTrip drives the whole encoder with arbitrary input and
// geometry: compression must always succeed on valid options and invert
// exactly through both decode paths.
func FuzzRANSRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 300), uint8(1), uint8(3))
	f.Add(mipsText()[:600], uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nSel, bsSel uint8) {
		streams := []int{1, 2, 4, 8}[nSel%4]
		blockSize := []int{4, 32, 128, 1024}[bsSel%4]
		c, err := Compress(data, Options{BlockSize: blockSize, Streams: streams})
		if err != nil {
			t.Fatalf("compress failed on valid input: %v", err)
		}
		got, err := c.Decompress()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip failed: %v", err)
		}
		for i := 0; i < c.NumBlocks(); i++ {
			ref, err := c.blockReference(i)
			if err != nil {
				t.Fatalf("blockReference(%d): %v", i, err)
			}
			lo := i * blockSize
			if !bytes.Equal(ref, data[lo:lo+len(ref)]) {
				t.Fatalf("block %d reference decode differs", i)
			}
		}
		c2, err := Unmarshal(c.Marshal())
		if err != nil {
			t.Fatalf("unmarshal of own marshal failed: %v", err)
		}
		got2, err := c2.Decompress()
		if err != nil || !bytes.Equal(got2, data) {
			t.Fatalf("round trip after marshal failed: %v", err)
		}
	})
}

func TestMarshalRoundTrip(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("round trip after unmarshal failed: %v", err)
	}
	if c2.CompressedSize() != c.CompressedSize() {
		t.Fatal("size accounting changed")
	}
	blk, err := c2.Block(2)
	if err != nil || !bytes.Equal(blk, text[2*c.BlockSize:3*c.BlockSize]) {
		t.Fatal("random access after unmarshal failed")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	c, _ := Compress(mipsText()[:512], Options{BlockSize: 32})
	img := c.Marshal()
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil must fail")
	}
	if _, err := Unmarshal([]byte("BAD!xxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("bad magic must fail")
	}
	for cut := 0; cut < len(img)-33; cut += 11 {
		if _, err := Unmarshal(img[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestBitFlipRejected: the whole-image CRC must catch any single-bit flip.
func TestBitFlipRejected(t *testing.T) {
	c, _ := Compress(mipsText()[:512], Options{BlockSize: 32})
	img := c.Marshal()
	for bit := 0; bit < len(img)*8; bit += 7 {
		bad := append([]byte(nil), img...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", bit)
		}
	}
}

// Property: corruption never panics.
func TestQuickCorruptionSafety(t *testing.T) {
	c, _ := Compress(mipsText()[:512], Options{BlockSize: 32})
	img := c.Marshal()
	f := func(pos uint16, val byte) bool {
		bad := append([]byte(nil), img...)
		bad[int(pos)%len(bad)] ^= val | 1
		c2, err := Unmarshal(bad)
		if err != nil {
			return true
		}
		_, _ = c2.Decompress()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeInvariants: every context table must sum to exactly m with
// no counted symbol starved to zero.
func TestQuantizeInvariants(t *testing.T) {
	skew := [numSym]uint64{0: 1 << 40, 1: 1, 2: 1, 15: 3}
	var freq [numSym]uint16
	quantize(&skew, &freq)
	sum := 0
	for s, f := range freq {
		sum += int(f)
		if skew[s] > 0 && f == 0 {
			t.Fatalf("present symbol %d starved to frequency 0", s)
		}
		if skew[s] == 0 && f != 0 {
			t.Fatalf("absent symbol %d granted frequency %d", s, f)
		}
	}
	if sum != m {
		t.Fatalf("quantized total %d, want %d", sum, m)
	}
	var empty [numSym]uint64
	quantize(&empty, &freq)
	sum = 0
	for _, f := range freq {
		sum += int(f)
	}
	if sum != m {
		t.Fatalf("uniform fallback total %d, want %d", sum, m)
	}
}

func TestEncodeBlockSwap(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := text[3*c.BlockSize : 4*c.BlockSize]
	payload, err := c.EncodeBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	c.Blocks[1] = payload
	got, err := c.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("re-encoded block decodes wrong")
	}
	if _, err := c.EncodeBlock(make([]byte, c.BlockSize+4)); err == nil {
		t.Fatal("oversized block accepted")
	}
}
