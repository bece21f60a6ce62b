package samc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"codecomp/internal/arith"
	"codecomp/internal/streams"
	"codecomp/internal/synth"
)

func testText() []byte {
	prof := synth.Profile{Name: "t", KB: 16, FP: 0.2, Reuse: 0.4, SmallImm: 0.7, CallDensity: 0.05, Seed: 5}
	return synth.GenerateMIPS(prof).Text()
}

func TestRoundTrip(t *testing.T) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatal("decompressed text differs from original")
	}
}

func TestRandomAccessBlocks(t *testing.T) {
	text := testText()
	c, err := Compress(text, Options{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Decompress blocks in a scrambled order — each must be independent.
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(c.NumBlocks()) {
		blk, err := c.Block(i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		lo := i * c.BlockSize
		hi := lo + len(blk)
		if !bytes.Equal(blk, text[lo:hi]) {
			t.Fatalf("block %d content mismatch", i)
		}
	}
	if _, err := c.Block(-1); err == nil {
		t.Fatal("negative block index must fail")
	}
	if _, err := c.Block(c.NumBlocks()); err == nil {
		t.Fatal("out-of-range block index must fail")
	}
}

func TestCompressionRatio(t *testing.T) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Ratio()
	// The paper reports SAMC ≈ 0.5–0.65 on MIPS SPEC95. Synthetic code
	// statistics differ, but SAMC must compress well below byte-Huffman
	// territory and never expand.
	if r >= 0.85 {
		t.Fatalf("ratio = %.3f: barely compressing", r)
	}
	if r < 0.15 {
		t.Fatalf("ratio = %.3f: implausibly good, check accounting", r)
	}
	if c.CompressedSize() != c.PayloadBytes()+c.ModelBytes() {
		t.Fatal("size accounting inconsistent")
	}
	if c.ModelBytes() <= 0 {
		t.Fatal("model storage must be accounted")
	}
}

func TestConnectedTreesHelp(t *testing.T) {
	text := testText()
	indep, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Compress(text, Options{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	// §3: connecting the trees "improv[es] the compression performance".
	// Compare payloads (the connected model itself is bigger).
	if conn.PayloadBytes() >= indep.PayloadBytes() {
		t.Fatalf("connected payload %d >= independent %d", conn.PayloadBytes(), indep.PayloadBytes())
	}
	got, err := conn.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("connected-tree round trip failed")
	}
}

func TestQuantizedRoundTripAndEfficiency(t *testing.T) {
	text := testText()
	exact, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Compress(text, Options{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := quant.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("quantized round trip failed")
	}
	// Witten et al.: worst-case efficiency ≈95% with power-of-two LPS.
	// Allow up to 15% expansion over the exact-probability payload.
	if float64(quant.PayloadBytes()) > 1.15*float64(exact.PayloadBytes()) {
		t.Fatalf("quantized payload %d vs exact %d: losing too much",
			quant.PayloadBytes(), exact.PayloadBytes())
	}
}

func TestByteStreamModeForX86(t *testing.T) {
	prof := synth.Profile{Name: "t", KB: 16, FP: 0.1, Reuse: 0.4, SmallImm: 0.7, CallDensity: 0.05, Seed: 6}
	text := synth.GenerateX86(prof).Text()
	// x86 mode: WordBytes 1, single byte-wide stream. Any text length works.
	c, err := Compress(text, Options{WordBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("byte-stream round trip failed")
	}
	if c.Ratio() >= 1.0 {
		t.Fatalf("ratio = %.3f", c.Ratio())
	}
}

func TestCustomDivision(t *testing.T) {
	text := testText()
	// A permuted, non-contiguous division (as the optimizer would produce).
	d := streams.Division{Width: 32, Groups: [][]int{
		{0, 5, 10, 15, 20, 25, 30, 3},
		{1, 6, 11, 16, 21, 26, 31, 4},
		{2, 7, 12, 17, 22, 27, 8, 13},
		{9, 14, 18, 19, 23, 24, 28, 29},
	}}
	c, err := Compress(text, Options{Division: d})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("custom-division round trip failed")
	}
}

func TestBlockSizes(t *testing.T) {
	text := testText()
	for _, bs := range []int{16, 32, 64, 128} {
		c, err := Compress(text, Options{BlockSize: bs})
		if err != nil {
			t.Fatalf("block size %d: %v", bs, err)
		}
		got, err := c.Decompress()
		if err != nil || !bytes.Equal(got, text) {
			t.Fatalf("block size %d round trip failed", bs)
		}
	}
}

func TestShortLastBlock(t *testing.T) {
	text := testText()[:32*10+8] // last block is 8 bytes
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatal("short-last-block round trip failed")
	}
	last, err := c.Block(c.NumBlocks() - 1)
	if err != nil || len(last) != 8 {
		t.Fatalf("last block = %d bytes, err %v", len(last), err)
	}
}

func TestOptionErrors(t *testing.T) {
	text := testText()
	if _, err := Compress(text, Options{WordBytes: 3}); err == nil {
		t.Fatal("word size 3 must fail")
	}
	if _, err := Compress(text, Options{BlockSize: 30}); err == nil {
		t.Fatal("block size not a multiple of word size must fail")
	}
	if _, err := Compress(text[:6], Options{}); err == nil {
		t.Fatal("text not a multiple of word size must fail")
	}
	bad := streams.Division{Width: 32, Groups: [][]int{{0, 1}}}
	if _, err := Compress(text, Options{Division: bad}); err == nil {
		t.Fatal("invalid division must fail")
	}
	d16 := streams.Contiguous(16, 2)
	if _, err := Compress(text, Options{Division: d16}); err == nil {
		t.Fatal("division width mismatching word size must fail")
	}
}

func TestEmptyText(t *testing.T) {
	c, err := Compress(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress()
	if err != nil || len(got) != 0 {
		t.Fatal("empty text round trip failed")
	}
	if c.Ratio() != 1 {
		t.Fatal("empty ratio should be 1")
	}
}

// Property: SAMC round-trips arbitrary word-aligned byte strings (not just
// valid code) for several configurations.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, connected, quantize bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := (1 + rng.Intn(200)) * 4
		text := make([]byte, n)
		// Mix of structured and random bytes.
		for i := range text {
			if rng.Intn(3) > 0 {
				text[i] = byte(rng.Intn(8))
			} else {
				text[i] = byte(rng.Intn(256))
			}
		}
		c, err := Compress(text, Options{Connected: connected, Quantize: quantize})
		if err != nil {
			return false
		}
		got, err := c.Decompress()
		return err == nil && bytes.Equal(got, text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	text := testText()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(text, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressBlock(b *testing.B) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Block(i % c.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendBlockMatchesReference pins the fast path (value decoder,
// flattened model trees, shift-table word assembly) to the original
// bit-serial decode, byte for byte, across option shapes and with a
// reused destination buffer.
func TestAppendBlockMatchesReference(t *testing.T) {
	text := testText()
	for _, opts := range []Options{
		{},
		{Connected: true},
		{Quantize: true},
		{WordBytes: 1},
		{WordBytes: 2, BlockSize: 64},
		{BlockSize: 16, Connected: true},
	} {
		c, err := Compress(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		var dst []byte
		for i := 0; i < c.NumBlocks(); i++ {
			want, err := c.blockReference(i)
			if err != nil {
				t.Fatalf("opts %+v block %d reference: %v", opts, i, err)
			}
			dst, err = c.AppendBlock(dst[:0], i)
			if err != nil {
				t.Fatalf("opts %+v block %d fast: %v", opts, i, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("opts %+v: block %d fast decode differs from reference", opts, i)
			}
			got, err := c.Block(i)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("opts %+v: block %d Block differs from reference (%v)", opts, i, err)
			}
		}
	}
}

// TestAppendBlockAppends checks AppendBlock extends dst instead of clobbering
// it — the contract the romserver scratch pool relies on.
func TestAppendBlockAppends(t *testing.T) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := []byte("prefix")
	dst, err = c.AppendBlock(dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dst, []byte("prefix")) {
		t.Fatal("AppendBlock clobbered existing dst contents")
	}
	if !bytes.Equal(dst[6:], text[:c.BlockSize]) {
		t.Fatal("appended block content wrong")
	}
}

func TestAppendBlockNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	text := testText()
	c, err := Compress(text, Options{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, c.BlockSize)
	c.AppendBlock(dst, 0) // warm the lazy shift table and flattened model
	n := testing.AllocsPerRun(50, func() {
		if _, err := c.AppendBlock(dst[:0], 0); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendBlock allocates %v times per call, want 0", n)
	}
}

func BenchmarkDecompressBlockReference(b *testing.B) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.blockReference(i % c.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBlock(b *testing.B) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, c.BlockSize)
	b.SetBytes(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = c.AppendBlock(dst[:0], i%c.NumBlocks())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeBlockConcurrent encodes and decodes one freshly unmarshaled
// image from several goroutines at once, so they race to build the
// shared kernel tables: every payload must equal Compress's, and every
// decode the text.
func TestEncodeBlockConcurrent(t *testing.T) {
	text := testText()
	want, err := Compress(text, Options{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Unmarshal(want.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < c.NumBlocks(); i += workers {
				block := text[i*c.BlockSize : min((i+1)*c.BlockSize, len(text))]
				got, err := c.EncodeBlock(block)
				if err != nil || !bytes.Equal(got, want.Blocks[i]) {
					t.Errorf("block %d: concurrent EncodeBlock differs from Compress (%v)", i, err)
					return
				}
				if dec, err := c.AppendBlock(nil, i); err != nil || !bytes.Equal(dec, block) {
					t.Errorf("block %d: concurrent decode differs from the text (%v)", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// encodeSink keeps the benchmarked payloads live.
var encodeSink []byte

// benchmarkEncode codes the test text's blocks in turn with encode,
// 32 bytes per op.
func benchmarkEncode(b *testing.B, encode func(c *Compressed, block []byte) []byte) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % (len(text) / c.BlockSize) * c.BlockSize
		encodeSink = encode(c, text[off:off+c.BlockSize])
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	benchmarkEncode(b, func(c *Compressed, block []byte) []byte {
		payload, err := c.EncodeBlock(block)
		if err != nil {
			b.Fatal(err)
		}
		return payload
	})
}

func BenchmarkEncodeBlockReference(b *testing.B) {
	benchmarkEncode(b, (*Compressed).encodeReference)
}

func TestBlockParallelMatchesSerial(t *testing.T) {
	text := testText()
	for _, opts := range []Options{
		{Connected: true},
		{},
		{Quantize: true},
		{WordBytes: 1},
	} {
		c, err := Compress(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		totalNib, totalInt := 0, 0
		for i := 0; i < c.NumBlocks(); i++ {
			serial, err := c.Block(i)
			if err != nil {
				t.Fatalf("block %d serial: %v", i, err)
			}
			par, st, err := c.BlockParallel(i)
			if err != nil {
				t.Fatalf("block %d parallel: %v", i, err)
			}
			if !bytes.Equal(serial, par) {
				t.Fatalf("opts %+v: block %d: parallel decode differs from serial", opts, i)
			}
			totalNib += st.Nibbles
			totalInt += st.Interrupts
		}
		if totalNib == 0 {
			t.Fatal("no nibble evaluations recorded")
		}
		// Interrupt rate must be modest: the cycle advantage of the
		// parallel engine depends on most nibbles completing in one shot.
		rate := float64(totalInt) / float64(totalNib)
		if rate > 0.9 {
			t.Fatalf("opts %+v: %.2f interrupts per nibble", opts, rate)
		}
	}
	if _, _, err := func() ([]byte, arith.NibbleStats, error) {
		c, _ := Compress(text, Options{})
		return c.BlockParallel(-1)
	}(); err == nil {
		t.Fatal("negative block index must fail")
	}
}

func TestEncodeBlockSwap(t *testing.T) {
	text := testText()
	c, err := Compress(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode block 5's content under the frozen model and install it at
	// block 2: the decode of block 2 must now be block 5's bytes.
	src := text[5*c.BlockSize : 6*c.BlockSize]
	payload, err := c.EncodeBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	c.Blocks[2] = payload
	got, err := c.Block(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("re-encoded block decodes wrong: got %x want %x", got, src)
	}
	if _, err := c.EncodeBlock(make([]byte, c.BlockSize+c.WordBytes)); err == nil {
		t.Fatal("oversized block accepted")
	}
	if _, err := c.EncodeBlock(make([]byte, c.WordBytes+1)); err == nil {
		t.Fatal("non-word-multiple block accepted")
	}
}
