package sadc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTripMIPS(t *testing.T) {
	text := mipsText()
	c, err := Compress(text, MIPSAdapter{}, Options{})
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
		t.Fatalf("size accounting changed: %d vs %d", c2.CompressedSize(), c.CompressedSize())
	}
	if len(c2.Dict) != len(c.Dict) {
		t.Fatal("dictionary size changed")
	}
}

func TestMarshalRoundTripX86(t *testing.T) {
	text := x86Text()
	c, err := Compress(text, NewX86Adapter(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Decompress()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("x86 round trip after unmarshal failed: %v", err)
	}
	// The rebuilt adapter must charge the same aux table.
	if c2.DictBytes() != c.DictBytes() {
		t.Fatalf("dict accounting changed: %d vs %d", c2.DictBytes(), c.DictBytes())
	}
}

func TestMarshalBlockSizes(t *testing.T) {
	text := mipsText()
	for _, bs := range []int{16, 64} {
		c, err := Compress(text, MIPSAdapter{}, Options{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Unmarshal(c.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c2.Decompress()
		if err != nil || !bytes.Equal(got, text) {
			t.Fatalf("block size %d: %v", bs, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	text := mipsText()[:1024]
	c, _ := Compress(text, MIPSAdapter{}, Options{})
	img := c.Marshal()

	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil must fail")
	}
	if _, err := Unmarshal([]byte("NOPE")); err == nil {
		t.Fatal("bad magic must fail")
	}
	bad := append([]byte(nil), img...)
	bad[5] = 7 // ISA tag
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown ISA tag must fail")
	}
	for cut := 0; cut < len(img)-1; cut += 17 {
		if _, err := Unmarshal(img[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Unmarshal(append(img, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// Property: corrupted images never panic during unmarshal or decompression.
func TestQuickCorruptionSafety(t *testing.T) {
	text := mipsText()[:1024]
	c, _ := Compress(text, MIPSAdapter{}, Options{})
	img := c.Marshal()
	f := func(pos uint16, val byte) bool {
		bad := append([]byte(nil), img...)
		bad[int(pos)%len(bad)] ^= val | 1
		c2, err := Unmarshal(bad)
		if err != nil {
			return true
		}
		_, _ = c2.Decompress() // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalChecksum(t *testing.T) {
	c, _ := Compress(mipsText()[:1024], MIPSAdapter{}, Options{})
	img := c.Marshal()
	for _, pos := range []int{9, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x40
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
}

func TestUnmarshalBadISATag(t *testing.T) {
	c, _ := Compress(mipsText()[:1024], MIPSAdapter{}, Options{})
	img := c.Marshal()
	bad := append([]byte(nil), img...)
	bad[9] = 7 // ISA tag follows magic+version+CRC
	// Fix the checksum so the tag check itself is exercised.
	binary.BigEndian.PutUint32(bad[5:], crc32.ChecksumIEEE(bad[9:]))
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown ISA tag must fail")
	}
}

func TestDecompressParallel(t *testing.T) {
	for name, text := range map[string][]byte{"mips": mipsText(), "x86": x86Text()} {
		var (
			c   *Compressed
			err error
		)
		if name == "mips" {
			c, err = Compress(text, MIPSAdapter{}, Options{})
		} else {
			c, err = Compress(text, NewX86Adapter(), Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 64} {
			got, err := c.DecompressParallel(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(got, text) {
				t.Fatalf("%s workers=%d: output differs", name, workers)
			}
		}
	}
}

// TestDecompressParallelMatchesDecompress checks the parallel pass
// against the sequential one on both adapters.
func TestDecompressParallelMatchesDecompress(t *testing.T) {
	for name, c := range map[string]*Compressed{
		"mips": mustCompress(t, mipsText(), MIPSAdapter{}),
		"x86":  mustCompress(t, x86Text(), NewX86Adapter()),
	} {
		want, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			got, err := c.DecompressParallel(workers)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s workers=%d: output differs from Decompress (%v)", name, workers, err)
			}
		}
	}
}

// TestDecompressParallelAllocs checks that the parallel pass allocates
// per worker, not per block: a 4x larger image costs no more
// allocations, give or take a goroutine's.
func TestDecompressParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	text := mipsText()
	allocs := func(text []byte) float64 {
		c := mustCompress(t, text, MIPSAdapter{})
		c.DecompressParallel(2) // warm the pooled decoders
		return testing.AllocsPerRun(20, func() {
			if _, err := c.DecompressParallel(2); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(text[:len(text)/16*4]), allocs(text)
	if large > small+2 {
		t.Fatalf("DecompressParallel allocs grow with blocks: %v at %d bytes, %v at %d", small, len(text)/16*4, large, len(text))
	}
}

func mustCompress(t *testing.T, text []byte, a Adapter) *Compressed {
	t.Helper()
	c, err := Compress(text, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
