package romimg

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	blocks := [][]byte{[]byte("abc"), nil, []byte("defgh")}
	img := Begin("TEST", 3)
	img = append(img, 0x12, 0x34)
	img = Seal(AppendLAT(img, blocks))

	r, err := Open(img, "TEST", 3, "test")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.U16(); err != nil || v != 0x1234 {
		t.Fatalf("U16 = %#x, %v", v, err)
	}
	got, err := r.LAT(len(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("%d blocks, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i]) {
			t.Fatalf("block %d = %q, want %q", i, got[i], blocks[i])
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the LAT", r.Len())
	}
}

func TestOpenRejects(t *testing.T) {
	img := Seal(append(Begin("TEST", 1), 1, 2, 3))
	flipped := append([]byte(nil), img...)
	flipped[10] ^= 1
	wrongVersion := append([]byte(nil), img...)
	wrongVersion[4] = 2
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "test: bad magic"},
		{"magic", []byte("XXXX\x01"), "test: bad magic"},
		{"version", wrongVersion, "test: unsupported version 2"},
		{"no crc", img[:7], "test: truncated image"},
		{"crc", flipped, "test: image checksum mismatch"},
	} {
		if _, err := Open(tc.data, "TEST", 1, "test"); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, tc.want)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, "test")
	if _, err := r.U32(); err == nil {
		t.Fatal("U32 past the end must fail")
	}
	if _, err := r.Take(-1); err == nil {
		t.Fatal("negative Take must fail")
	}
	if v, err := r.U16(); err != nil || v != 0x0102 {
		t.Fatalf("U16 = %#x, %v", v, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestLATRejects(t *testing.T) {
	table := func(offsets ...uint32) []byte {
		var b []byte
		for _, o := range offsets {
			b = binary.BigEndian.AppendUint32(b, o)
		}
		return b
	}
	for _, tc := range []struct {
		name      string
		data      []byte
		numBlocks int
		want      string
	}{
		{"short table", table(0, 1), 2, "test: truncated LAT (2 blocks)"},
		{"negative count", table(0), -1, "test: truncated LAT"},
		{"huge count", table(0, 0), 1 << 30, "test: truncated LAT"},
		{"descending", append(table(0, 2, 1), 'a', 'b'), 2, "test: corrupt LAT entry 1 [2,1)"},
		{"past payload", append(table(0, 3), 'a', 'b'), 1, "test: corrupt LAT entry 0 [0,3)"},
	} {
		if _, err := NewReader(tc.data, "test").LAT(tc.numBlocks); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if blocks, err := NewReader(table(0), "test").LAT(0); err != nil || blocks != nil {
		t.Fatalf("zero blocks: %v, %v", blocks, err)
	}
}

// TestLATChecksBeforeAllocating pins what a forged header must not get: a
// block count the remaining bytes cannot hold is rejected without sizing
// anything by it.
func TestLATChecksBeforeAllocating(t *testing.T) {
	data := make([]byte, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(data, "test").LAT(1 << 24)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^24 blocks in 64 bytes accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting a forged block count allocated %d bytes", d)
	}
}
