package rans

import "testing"

func benchImage(b *testing.B, streams int) *Compressed {
	b.Helper()
	c, err := Compress(mipsText(), Options{Streams: streams})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkDecompressBlock(b *testing.B) {
	c := benchImage(b, 0)
	b.SetBytes(int64(c.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Block(i % c.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressBlockReference(b *testing.B) {
	benchmarkReference(b, benchImage(b, 0))
}

func BenchmarkAppendBlock(b *testing.B) {
	benchmarkAppend(b, benchImage(b, 0))
}

// BenchmarkAppendBlockN1 and BenchmarkDecompressBlockReferenceN1 measure
// the single-state image the tiering layer serves (tiering.Spec.Streams
// defaults to 1).
func BenchmarkAppendBlockN1(b *testing.B) {
	benchmarkAppend(b, benchImage(b, 1))
}

func BenchmarkDecompressBlockReferenceN1(b *testing.B) {
	benchmarkReference(b, benchImage(b, 1))
}

func benchmarkAppend(b *testing.B, c *Compressed) {
	dst := make([]byte, 0, c.BlockSize)
	b.SetBytes(int64(c.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.AppendBlock(dst[:0], i%c.NumBlocks())
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkReference(b *testing.B, c *Compressed) {
	b.SetBytes(int64(c.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.blockReference(i % c.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

// encodeSink keeps the benchmarked payloads live.
var encodeSink []byte

// benchmarkEncode codes the text's blocks in turn with encode, one
// 128-byte block per op.
func benchmarkEncode(b *testing.B, encode func(c *Compressed, block []byte) ([]byte, error)) {
	text := mipsText()
	c := benchImage(b, 0)
	blocks := len(text) / c.BlockSize
	b.SetBytes(int64(c.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % blocks * c.BlockSize
		var err error
		if encodeSink, err = encode(c, text[off:off+c.BlockSize]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	benchmarkEncode(b, (*Compressed).EncodeBlock)
}

func BenchmarkEncodeBlockReference(b *testing.B) {
	benchmarkEncode(b, (*Compressed).encodeReference)
}
