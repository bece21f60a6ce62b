package codecomp_test

// Concurrent-read safety: compressed images are immutable after
// construction and Block allocates all decoder state per call, so any
// number of goroutines may decompress blocks of the same image at once.
// The serving layer (internal/romserver) leans on this; these tests enforce
// it under `go test -race` for every block-addressable format.

import (
	"bytes"
	"sync"
	"testing"

	"codecomp"
)

// hammerBlocks decompresses every block of img from many goroutines at once
// and checks each result against the original text (32-byte blocks).
func hammerBlocks(t *testing.T, img codecomp.BlockCodec, text []byte) {
	t.Helper()
	const goroutines = 8
	n := img.NumBlocks()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different offset so at any moment
			// several goroutines are inside the same block and several are
			// in different blocks — both sharing patterns race-checked.
			// Odd goroutines decode two blocks per step through
			// AppendBlockPair (SAMC's two-lane kernel, the other codecs'
			// two-call fallback), so pairs race single decodes too.
			for k := 0; k < n; k++ {
				i := (k + g*n/goroutines) % n
				var got, next []byte
				var err error
				if g%2 == 1 && i+1 < n {
					got, next, err = codecomp.AppendBlockPair(img, nil, nil, i)
				} else {
					got, err = img.Block(i)
				}
				if err != nil {
					t.Errorf("goroutine %d: Block(%d): %v", g, i, err)
					return
				}
				if !bytes.Equal(got, text[i*32:min((i+1)*32, len(text))]) {
					t.Errorf("goroutine %d: Block(%d): wrong bytes", g, i)
					return
				}
				if next != nil && !bytes.Equal(next, text[(i+1)*32:min((i+2)*32, len(text))]) {
					t.Errorf("goroutine %d: AppendBlockPair(%d): wrong second block", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentBlockReads(t *testing.T) {
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()

	t.Run("samc", func(t *testing.T) {
		t.Parallel()
		img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
		if err != nil {
			t.Fatal(err)
		}
		hammerBlocks(t, img, text)
	})
	t.Run("sadc", func(t *testing.T) {
		t.Parallel()
		img, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hammerBlocks(t, img, text)
	})
	t.Run("huffman", func(t *testing.T) {
		t.Parallel()
		img, err := codecomp.CompressHuffman(text, 32)
		if err != nil {
			t.Fatal(err)
		}
		hammerBlocks(t, img, text)
	})
	// Unmarshaled images must be as read-safe as freshly compressed ones
	// (the registry always serves unmarshaled uploads).
	t.Run("unmarshaled", func(t *testing.T) {
		t.Parallel()
		src, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
		if err != nil {
			t.Fatal(err)
		}
		img, err := codecomp.UnmarshalAny(src.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		hammerBlocks(t, img, text)
	})
}
