package codecomp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"runtime"
	"testing"

	"codecomp"
)

// TestMarshalGoldenBytes pins the stored bytes of every ROM image format.
// Round-trip tests only prove that Unmarshal inverts Marshal; images
// already saved in a node's -data-dir and burned into ROM need Marshal
// itself to stay byte-for-byte stable. Each image is built from the same
// fixed synthetic program, so a hash change means the wire format (or a
// compressor feeding it) changed: bump the format's version instead of
// updating the hash.
func TestMarshalGoldenBytes(t *testing.T) {
	p := codecomp.MustProfile("tomcatv")
	mips := codecomp.GenerateMIPS(p).Text()[:8192]
	x86 := codecomp.GenerateX86(p).Text()

	assign := make([]uint8, len(mips)/128)
	for i := range assign {
		assign[i] = uint8(i % 4)
	}
	// samcShape marshals one SAMC encoder shape.
	samcShape := func(text []byte, opts codecomp.SAMCOptions) func() ([]byte, error) {
		return func() ([]byte, error) {
			img, err := codecomp.CompressSAMC(text, opts)
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}
	}
	// Three unequal interleaved streams: bit p in group p%3, so the coding
	// order is neither contiguous nor the architectural order.
	divided := codecomp.Division{Width: 32, Groups: make([][]int, 3)}
	for p := 31; p >= 0; p-- {
		divided.Groups[p%3] = append(divided.Groups[p%3], p)
	}
	images := []struct {
		name    string
		marshal func() ([]byte, error)
		want    string
	}{
		{"samc", samcShape(mips, codecomp.SAMCOptions{Connected: true}),
			"52d4f04787653050c36880e17e1b8398f8f24301e5a32b6ce50c0dcaf4d961b3"},
		{"samc-x86", samcShape(x86, codecomp.SAMCOptions{WordBytes: 1, Connected: true}),
			"c4464d1350ba48f87ff04ee14494923ea4157d4b1814bc215d30da736634b8f8"},
		{"samc-quantize", samcShape(mips, codecomp.SAMCOptions{Quantize: true}),
			"3833f33e0de8615aab9fd27aef954d545add7846c7ed9979bc653458f44ff26d"},
		{"samc-prec6", samcShape(mips, codecomp.SAMCOptions{ProbPrecision: 6, Connected: true}),
			"c751988bc2518d3246286af34802bc63f2ca2aff43fda9ff03519e3faf49a449"},
		{"samc-64B", samcShape(mips, codecomp.SAMCOptions{BlockSize: 64, Connected: true}),
			"630776544ef7637d52127920441386e143c8d99c3f7b087ed309d4ba140b8721"},
		{"samc-divided", samcShape(mips, codecomp.SAMCOptions{Division: divided, Connected: true}),
			"c53ad4a79c1381b4aef221dbdc8adb9f3e06b3ae4380dbc3fed6c43451d50d2b"},
		{"sadc-mips", func() ([]byte, error) {
			img, err := codecomp.CompressSADCMIPS(mips, codecomp.SADCOptions{})
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}, "263c0e3a87d87322c5ad1431a957deddc66157506b80e89cde05e634acfee8e1"},
		{"sadc-x86", func() ([]byte, error) {
			img, err := codecomp.CompressSADCX86(x86, codecomp.SADCOptions{})
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}, "0f67c9e42e5ab7a56a3989b0f091ed344b065000296fa734c273da19a249c978"},
		{"huffman", func() ([]byte, error) {
			img, err := codecomp.CompressHuffman(mips, 32)
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}, "a56338f3070972b18ad0ac614520ca73a4c1186e18897b3af66ad72fd39fcf46"},
		{"rans", func() ([]byte, error) {
			img, err := codecomp.CompressRANS(mips, codecomp.RANSOptions{})
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}, "452bb2e3eb5561d7c933edc866acb737daded307eea06da287bdb682d084f0e7"},
		{"tiered", func() ([]byte, error) {
			img, err := codecomp.CompressTiered(mips, codecomp.TierSpec{
				BlockSize: 128,
				Tiers:     []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS, codecomp.TierSAMC},
				Assign:    assign,
			})
			if err != nil {
				return nil, err
			}
			return img.Marshal(), nil
		}, "246b1871ee42db96e1423896a9f405e22dfb605a1295dfca9c92c087269e30f1"},
	}
	for _, tc := range images {
		data, err := tc.marshal()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Marshal() sha256 = %s (%d B), want %s", tc.name, got, len(data), tc.want)
		}
	}
}

// forgedSAMCImage is a real SAMC image whose header, under a recomputed
// CRC, claims 2^24 blocks of 32 bytes: a 2^29-byte program whose 64 MiB
// offset table the few kilobytes of image cannot hold.
func forgedSAMCImage(tb testing.TB) []byte {
	tb.Helper()
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()[:2048]
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		tb.Fatal(err)
	}
	data := img.Marshal()
	// Header: magic(4) version(1) crc(4) blockSize u16 | wordBytes u8 |
	// origSize u32 | numBlocks u32.
	if bs := binary.BigEndian.Uint16(data[9:]); bs != 32 {
		tb.Fatalf("block size %d, want 32", bs)
	}
	binary.BigEndian.PutUint32(data[12:], 1<<29)
	binary.BigEndian.PutUint32(data[16:], 1<<24)
	binary.BigEndian.PutUint32(data[5:], crc32.ChecksumIEEE(data[9:]))
	return data
}

// TestUnmarshalForgedBlockCount checks that a header's block count is
// bounded by the bytes actually present before anything is sized by it:
// one hostile POST /images must not make the server allocate the offset
// table the header claims.
func TestUnmarshalForgedBlockCount(t *testing.T) {
	img := forgedSAMCImage(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := codecomp.UnmarshalAny(img)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("forged %d-byte image claiming 2^24 blocks was accepted", len(img))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting a %d-byte image allocated %d bytes (%v)", len(img), d, err)
	}
}
