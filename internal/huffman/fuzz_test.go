package huffman

import (
	"bytes"
	"testing"

	"codecomp/internal/bitio"
)

// FuzzHuffmanDecodeFast differentially tests the table-driven decoder
// against the bit-serial one: for an arbitrary code (derived from fuzzed
// lengths) and an arbitrary bit stream — valid or hostile — DecodeFast must
// return the same symbol or the same error as Decode and leave the reader at
// the same bit position, step after step until the stream runs out. The
// fused block decode is held to DecodeFast in turn: AppendSymbols of n
// symbols must append exactly the symbols and return exactly the first
// error of n DecodeFast calls on a fresh reader.
func FuzzHuffmanDecodeFast(f *testing.F) {
	f.Add([]byte{2, 2, 2, 2}, []byte{0x1b, 0x00})
	f.Add([]byte{1, 2, 3, 3}, []byte{0xff, 0xff, 0xff})
	// Spill-path seed: code longer than lutBits.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12}, []byte{0xff, 0xfe, 0x01, 0x80})
	f.Add([]byte{}, []byte{0xaa})
	f.Add([]byte{4}, []byte{})
	f.Fuzz(func(t *testing.T, rawLens, stream []byte) {
		if len(rawLens) > 64 {
			rawLens = rawLens[:64]
		}
		lens := make([]uint8, len(rawLens))
		for i, b := range rawLens {
			lens[i] = b % (MaxBits + 1)
		}
		tbl, err := New(lens)
		if err != nil {
			return // over-subscribed code; nothing to compare
		}
		slow := bitio.NewReader(stream)
		fast := bitio.NewReader(stream)
		var syms []byte // DecodeFast's symbols before its first error
		var firstErr error
		defer func() {
			if firstErr != nil {
				checkAppendSymbols(t, tbl, stream, syms, firstErr)
			}
		}()
		for step := 0; ; step++ {
			sSym, sErr := tbl.Decode(slow)
			fSym, fErr := tbl.DecodeFast(fast)
			if sErr != fErr {
				t.Fatalf("step %d: Decode err %v, DecodeFast err %v", step, sErr, fErr)
			}
			if sErr == nil && sSym != fSym {
				t.Fatalf("step %d: Decode sym %d, DecodeFast sym %d", step, sSym, fSym)
			}
			if slow.BitPos() != fast.BitPos() {
				t.Fatalf("step %d: Decode at bit %d, DecodeFast at bit %d (err %v)",
					step, slow.BitPos(), fast.BitPos(), sErr)
			}
			if sErr != nil {
				firstErr = sErr
				return // both failed identically; stream exhausted or corrupt
			}
			syms = append(syms, byte(fSym))
		}
	})
}

// checkAppendSymbols decodes n symbols of stream with AppendSymbols for
// several n around the failing step and compares each with the first n
// DecodeFast calls: syms, then firstErr.
func checkAppendSymbols(t *testing.T, tbl *Table, stream, syms []byte, firstErr error) {
	t.Helper()
	s := len(syms)
	for _, n := range []int{0, 1, s / 2, s, s + 1, s + 7} {
		want, wantErr := syms, firstErr
		if n <= s {
			want, wantErr = syms[:n], nil
		}
		got, err := tbl.AppendSymbols([]byte("dst"), stream, n)
		if err != wantErr || string(got[:3]) != "dst" || !bytes.Equal(got[3:], want) {
			t.Fatalf("AppendSymbols of %d symbols: %d bytes, err %v; want %d bytes, err %v (DecodeFast fails at step %d)",
				n, len(got)-3, err, len(want), wantErr, s)
		}
	}
}
