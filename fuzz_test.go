package codecomp_test

// Fuzz targets for every decoder-facing surface: hostile inputs must error,
// never panic or hang. `go test` runs the seed corpus; `go test -fuzz=X`
// explores further.

import (
	"bytes"
	"testing"

	"codecomp"
)

func seedImages(f *testing.F) (mips []byte) {
	f.Helper()
	p := codecomp.MustProfile("tomcatv") // smallest profile
	return codecomp.GenerateMIPS(p).Text()[:2048]
}

func FuzzLZWDecompress(f *testing.F) {
	text := seedImages(f)
	f.Add(codecomp.LZWCompress(text))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 8, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := codecomp.LZWDecompress(data)
		if err == nil && len(data) >= 4 {
			// On success the output length must match the header.
			want := int(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
			if len(out) != want {
				t.Fatalf("decoded %d bytes, header says %d", len(out), want)
			}
		}
	})
}

func FuzzDeflateDecompress(f *testing.F) {
	text := seedImages(f)
	f.Add(codecomp.DeflateCompress(text))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 16, 0xAB, 0xCD})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = codecomp.DeflateDecompress(data) // must not panic
	})
}

func FuzzUnmarshalSAMC(f *testing.F) {
	text := seedImages(f)
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Marshal())
	f.Add([]byte("SAMC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := codecomp.UnmarshalSAMC(data)
		if err != nil {
			return
		}
		_, _ = c.Decompress() // structurally valid → must not panic
	})
}

func FuzzUnmarshalSADC(f *testing.F) {
	text := seedImages(f)
	img, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Marshal())
	f.Add([]byte("SADC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := codecomp.UnmarshalSADC(data)
		if err != nil {
			return
		}
		_, _ = c.Decompress()
	})
}

func FuzzUnmarshalHuffman(f *testing.F) {
	text := seedImages(f)
	img, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := codecomp.UnmarshalHuffman(data)
		if err != nil {
			return
		}
		_, _ = c.Decompress()
	})
}

// FuzzSAMCRoundTrip drives the whole compressor with arbitrary word-aligned
// input: compression must always succeed and invert.
func FuzzSAMCRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data)&^3]
		img, err := codecomp.CompressSAMC(data, codecomp.SAMCOptions{})
		if err != nil {
			t.Fatalf("compress failed on valid input: %v", err)
		}
		got, err := img.Decompress()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzUnmarshalAny drives the registry's upload path: whatever magic a
// hostile upload claims, UnmarshalAny must either reject it or return an
// image whose blocks all decompress without panicking — a corrupted POST
// /images can never take down codecompd. Seeds include intact, truncated
// and bit-flipped marshals of every format.
func FuzzUnmarshalAny(f *testing.F) {
	text := seedImages(f)
	samcImg, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		f.Fatal(err)
	}
	sadcImg, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		f.Fatal(err)
	}
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		f.Fatal(err)
	}
	ransImg, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		f.Fatal(err)
	}
	tieredImg, err := codecomp.CompressTiered(text, codecomp.TierSpec{
		BlockSize:   128,
		Tiers:       []string{codecomp.TierRaw, codecomp.TierRANS},
		DefaultTier: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, img := range [][]byte{samcImg.Marshal(), sadcImg.Marshal(), huffImg.Marshal(), ransImg.Marshal(), tieredImg.Marshal()} {
		f.Add(img)
		f.Add(img[:len(img)/2]) // truncated
		f.Add(img[:16])         // header only
		flipped := append([]byte(nil), img...)
		flipped[len(flipped)/3] ^= 0x40 // bit-flipped payload
		f.Add(flipped)
		flipped2 := append([]byte(nil), img...)
		flipped2[6] ^= 0x01 // bit-flipped header
		f.Add(flipped2)
	}
	f.Add(forgedSAMCImage(f))
	f.Add([]byte{})
	f.Add([]byte("SAMC"))
	f.Add([]byte("SADC\x01"))
	f.Add([]byte("KZHF\xff\xff\xff\xff"))
	f.Add([]byte("RANS\x01\x00\x00\x00\x00"))
	f.Add([]byte("TIER\x01\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := codecomp.UnmarshalAny(data)
		if err != nil {
			return
		}
		// Accepted images must serve every block without panicking, the
		// way the romserver does on demand.
		for i := 0; i < c.NumBlocks(); i++ {
			_, _ = c.Block(i)
		}
		_, _ = c.Decompress()
	})
}

// FuzzUnmarshalAnyBitFlip models a single-event upset in stored ROM: for
// every format, ANY single-bit flip anywhere in a marshaled image must be
// rejected by UnmarshalAny — cleanly, with an error. All five container
// formats carry a whole-payload CRC32 plus magic/version checks, so a
// flipped image that unmarshals successfully is a serializer integrity
// hole, not fuzz noise.
func FuzzUnmarshalAnyBitFlip(f *testing.F) {
	text := seedImages(f)
	samcImg, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		f.Fatal(err)
	}
	sadcImg, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		f.Fatal(err)
	}
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		f.Fatal(err)
	}
	ransImg, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		f.Fatal(err)
	}
	tieredImg, err := codecomp.CompressTiered(text, codecomp.TierSpec{
		BlockSize:   128,
		Tiers:       []string{codecomp.TierRaw, codecomp.TierRANS},
		DefaultTier: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	images := [][]byte{samcImg.Marshal(), sadcImg.Marshal(), huffImg.Marshal(), ransImg.Marshal(), tieredImg.Marshal()}
	for i := range images {
		// Seed bit positions across the header, the CRC field itself and
		// the payload of each format.
		for _, bit := range []uint64{0, 8 * 5, 8 * 9, 8 * 20, uint64(len(images[i]))*8 - 1} {
			f.Add(uint8(i), bit)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, bit uint64) {
		img := images[int(which)%len(images)]
		bit %= uint64(len(img)) * 8
		flipped := append([]byte(nil), img...)
		flipped[bit/8] ^= 1 << (bit % 8)
		c, err := codecomp.UnmarshalAny(flipped)
		if err == nil {
			t.Fatalf("image %d with bit %d flipped was accepted (%T) — integrity check hole",
				which, bit, c)
		}
	})
}
