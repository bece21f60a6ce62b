package codecomp_test

import (
	"bytes"
	"testing"

	"codecomp"
)

// TestAppendBlockPrefixEquivalence pins the sub-block decode path to the
// full decoder: for every codec, every block and a sweep of offsets,
// AppendBlockPrefix must be bit-identical to the same-length prefix of
// Block while leaving the caller's prefix untouched, and the reported
// decoded-bytes figure must distinguish native prefix decode (SAMC,
// SADC, byte-Huffman) from the full-decode fallback (rANS, and tiered
// images in every tier).
func TestAppendBlockPrefixEquivalence(t *testing.T) {
	mips := codecomp.GenerateMIPS(codecomp.MustProfile("gcc")).Text()
	x86 := codecomp.GenerateX86(codecomp.MustProfile("gcc")).Text()

	samcImg, err := codecomp.CompressSAMC(mips, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	sadcMIPS, err := codecomp.CompressSADCMIPS(mips, codecomp.SADCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sadcX86, err := codecomp.CompressSADCX86(x86, codecomp.SADCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	huffImg, err := codecomp.CompressHuffman(mips, 32)
	if err != nil {
		t.Fatal(err)
	}
	ransImg, err := codecomp.CompressRANS(mips, codecomp.RANSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks cycle through all four tiers, native prefix decoders
	// included: a block's tier can change under a migration, so a tiered
	// image always takes the fallback.
	tierSpec := codecomp.TierSpec{
		BlockSize: 32,
		Tiers:     []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS, codecomp.TierSAMC},
		Assign:    make([]uint8, (len(mips)+31)/32),
	}
	for i := range tierSpec.Assign {
		tierSpec.Assign[i] = uint8(i % 4)
	}
	tieredImg, err := codecomp.CompressTiered(mips, tierSpec)
	if err != nil {
		t.Fatal(err)
	}

	pad := []byte("pad")
	for _, c := range []struct {
		name   string
		codec  codecomp.BlockCodec
		native bool
	}{
		{"SAMC", samcImg, true},
		{"SADC/MIPS", sadcMIPS, true},
		{"SADC/x86", sadcX86, true},
		{"Huffman", huffImg, true},
		{"RANS", ransImg, false},
		{"Tiered", tieredImg, false},
	} {
		buf := append([]byte(nil), pad...)
		for i := 0; i < c.codec.NumBlocks(); i++ {
			full, err := c.codec.Block(i)
			if err != nil {
				t.Fatalf("%s: Block(%d): %v", c.name, i, err)
			}
			for _, n := range []int{0, 1, 3, 4, 7, 8, len(full) / 2, len(full) - 1, len(full), len(full) + 13} {
				if n < 0 {
					continue
				}
				var decoded int
				buf, decoded, err = codecomp.AppendBlockPrefix(c.codec, buf[:len(pad)], i, n)
				if err != nil {
					t.Fatalf("%s: AppendBlockPrefix(%d, %d): %v", c.name, i, n, err)
				}
				want := full
				if n < len(full) {
					want = full[:n]
				}
				if !bytes.Equal(buf[:len(pad)], pad) {
					t.Fatalf("%s: AppendBlockPrefix(%d, %d) clobbered the prefix", c.name, i, n)
				}
				if !bytes.Equal(buf[len(pad):], want) {
					t.Fatalf("%s: AppendBlockPrefix(%d, %d) diverges from Block prefix", c.name, i, n)
				}
				if n > 0 && (decoded < len(want) || decoded > len(full)) {
					t.Fatalf("%s: AppendBlockPrefix(%d, %d) reported %d decoded bytes (want within [%d,%d])",
						c.name, i, n, decoded, len(want), len(full))
				}
				if !c.native && n > 0 && decoded != len(full) {
					t.Fatalf("%s: block %d: fallback prefix decode reported %d decoded bytes, want the full %d",
						c.name, i, decoded, len(full))
				}
			}
		}
		// The whole point of the native paths: a short prefix must not
		// pay for the full block. One byte of block 0 (full-size by
		// construction) must report strictly fewer decoded bytes than
		// the block holds.
		if c.native {
			full, err := c.codec.Block(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) > 8 {
				_, decoded, err := codecomp.AppendBlockPrefix(c.codec, nil, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if decoded >= len(full) {
					t.Fatalf("%s: 1-byte prefix of block 0 decoded %d of %d bytes — no sub-block saving",
						c.name, decoded, len(full))
				}
			}
		}
	}
}

// FuzzAppendBlockPrefix drives both AppendBlockPrefix paths with
// mutated program text and offsets: the byte-Huffman native prefix
// decoder and, through rANS, the full-decode fallback. For any text,
// block size and offset, the prefix decode must agree with the full
// decode's prefix, and the fallback must report the whole block decoded.
func FuzzAppendBlockPrefix(f *testing.F) {
	f.Add([]byte("hello huffman prefix world"), 8, 5)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, 4, 2)
	f.Add(bytes.Repeat([]byte("abcd"), 64), 32, 31)
	f.Fuzz(func(t *testing.T, text []byte, blockSize, n int) {
		if len(text) == 0 || blockSize <= 0 || blockSize > 1<<16 {
			t.Skip()
		}
		huff, err := codecomp.CompressHuffman(text, blockSize)
		if err != nil {
			t.Skip()
		}
		codecs := []codecomp.BlockCodec{huff}
		if rs, err := codecomp.CompressRANS(text, codecomp.RANSOptions{BlockSize: (blockSize + 3) &^ 3}); err == nil {
			codecs = append(codecs, rs)
		}
		for _, img := range codecs {
			_, native := img.(codecomp.BlockPrefixAppender)
			for i := 0; i < img.NumBlocks(); i++ {
				full, err := img.Block(i)
				if err != nil {
					t.Fatalf("%T: Block(%d): %v", img, i, err)
				}
				k := n
				if k < 0 {
					k = -k
				}
				if k > len(full) {
					k %= len(full) + 1
				}
				got, decoded, err := codecomp.AppendBlockPrefix(img, nil, i, k)
				if err != nil {
					t.Fatalf("%T: AppendBlockPrefix(%d, %d): %v", img, i, k, err)
				}
				if !bytes.Equal(got, full[:k]) {
					t.Fatalf("%T: block %d: prefix(%d) diverges from full decode", img, i, k)
				}
				if !native && k > 0 && decoded != len(full) {
					t.Fatalf("%T: block %d: fallback prefix(%d) reported %d decoded bytes, want %d",
						img, i, k, decoded, len(full))
				}
			}
		}
	})
}
