package romserver

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"codecomp"
)

// prefixCodec exposes the first n blocks of a real image, so one
// compressed program covers every chunk boundary of the registration
// pass.
type prefixCodec struct {
	codecomp.BlockCodec
	n int
}

func (c prefixCodec) NumBlocks() int { return c.n }

// newFaultyCodec returns a stub whose listed blocks error or panic.
func newFaultyCodec(blocks int, fail, panics []int) *stubCodec {
	return &stubCodec{blocks: blocks, decode: func(i int) ([]byte, error) {
		if slices.Contains(panics, i) {
			panic(fmt.Sprintf("decoder bug at block %d", i))
		}
		if slices.Contains(fail, i) {
			return nil, fmt.Errorf("bad block %d", i)
		}
		return stubBlock(i), nil
	}}
}

// sequentialSidecar is the reference: one Block call per block, in order.
func sequentialSidecar(t *testing.T, c codecomp.BlockCodec) *sidecar {
	t.Helper()
	n := c.NumBlocks()
	sc := &sidecar{crcs: make([]uint32, n), lens: make([]int32, n)}
	for i := 0; i < n; i++ {
		blk, err := c.Block(i)
		if err != nil {
			t.Fatalf("reference block %d: %v", i, err)
		}
		sc.crcs[i] = crc32.Checksum(blk, castagnoli)
		sc.lens[i] = int32(len(blk))
	}
	return sc
}

// waitGoroutines fails the test unless the goroutine count falls back
// to base: the registration pass must not leave a chunk goroutine
// behind, whichever way it ended.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the registration pass, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// sidecarTestImages compresses one program whose length is not a
// multiple of any block size (1100 32-byte blocks, the last one 20
// bytes) in every serving format. Compressing dominates the test's
// time, so repeated runs in one process (-count) share the images,
// which are immutable.
var sidecarTestImages = sync.OnceValues(func() (map[string]codecomp.BlockCodec, error) {
	text := codecomp.GenerateMIPS(codecomp.MustProfile("go")).Text()[:1100*32-12]
	samcImg, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		return nil, err
	}
	sadcImg, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		return nil, err
	}
	huffImg, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		return nil, err
	}
	ransImg, err := codecomp.CompressRANS(text, codecomp.RANSOptions{BlockSize: 32})
	if err != nil {
		return nil, err
	}
	tiered, err := codecomp.CompressTiered(text, testTierSpec)
	if err != nil {
		return nil, err
	}
	if blk, _ := tiered.Block(tiered.NumBlocks() - 1); len(blk) != len(text)%testTierSpec.BlockSize || len(blk) == 0 {
		return nil, fmt.Errorf("tiered last block is %d bytes, want a short block", len(blk))
	}
	return map[string]codecomp.BlockCodec{
		"samc": samcImg, "sadc": sadcImg, "huffman": huffImg, "rans": ransImg, "tiered": tiered,
	}, nil
})

// TestBuildSidecarParallel pins the chunked registration pass to the
// sequential one: the same checksums and lengths for every format and
// every chunking, the lowest failing block named on error, a codec
// panic on any chunk goroutine turned into a rejection, and no
// goroutine left behind.
func TestBuildSidecarParallel(t *testing.T) {
	images, err := sidecarTestImages()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		for format, img := range images {
			for _, n := range []int{0, 1, 63, 64, 65, 129, img.NumBlocks()} {
				c := codecomp.BlockCodec(prefixCodec{img, n})
				if n == img.NumBlocks() {
					c = img
				}
				got, err := buildSidecar(c)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d %s %d blocks: %v", procs, format, n, err)
				}
				want := sequentialSidecar(t, c)
				for i := 0; i < n; i++ {
					if got.crcs[i] != want.crcs[i] || got.lens[i] != want.lens[i] {
						t.Fatalf("GOMAXPROCS %d %s %d blocks: block %d = (%08x, %d), want (%08x, %d)",
							procs, format, n, i, got.crcs[i], got.lens[i], want.crcs[i], want.lens[i])
					}
				}
				if len(got.crcs) != n || len(got.lens) != n {
					t.Fatalf("GOMAXPROCS %d %s %d blocks: sidecar holds %d/%d entries",
						procs, format, n, len(got.crcs), len(got.lens))
				}
				waitGoroutines(t, base)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// Under GOMAXPROCS 4 the 1000 stub blocks split into four chunks of
	// 250: [0,250) [250,500) [500,750) [750,1000).
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	base := runtime.NumGoroutine()
	cases := []struct {
		name         string
		fail, panics []int
		want         string
	}{
		{"clean", nil, nil, ""},
		{"last chunk errors", []int{900}, nil, "block 900 failed to decompress"},
		{"two chunks error", []int{750, 499}, nil, "block 499 failed to decompress"},
		{"non-first chunk panics", nil, []int{600}, "codec panicked during verification"},
		{"error below a panic", []int{300}, []int{600}, "block 300 failed to decompress"},
		{"panic below an error", []int{999}, []int{260}, "codec panicked during verification"},
	}
	for _, tc := range cases {
		stub := newFaultyCodec(1000, tc.fail, tc.panics)
		sc, err := buildSidecar(stub)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want == "" && stub.calls.Load() != 1000:
			t.Fatalf("%s: %d of 1000 blocks decoded", tc.name, stub.calls.Load())
		case tc.want != "" && (err == nil || sc != nil):
			t.Fatalf("%s: accepted (sidecar %v, err %v)", tc.name, sc != nil, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Fatalf("%s: error %q, want it to name %q", tc.name, err, tc.want)
		}
		waitGoroutines(t, base)
	}
}

// TestAddImageRejectsFailingBlock registers a rANS image whose payload
// is intact but one block in the last chunk is empty, so it cannot
// decode: the upload is rejected naming that block, a fresh name is
// never registered, and an existing registration under the name keeps
// serving the old image.
func TestAddImageRejectsFailingBlock(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	text := codecomp.GenerateMIPS(codecomp.MustProfile("go")).Text()[:1000*32]
	img, err := codecomp.CompressRANS(text, codecomp.RANSOptions{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	good := img.Marshal()
	img.Blocks[900] = nil
	bad := img.Marshal()

	s := New(Options{})
	defer s.Close()
	base := runtime.NumGoroutine()
	if _, err := s.AddImage("fresh", bad); err == nil || !strings.Contains(err.Error(), "block 900 failed to decompress") {
		t.Fatalf("AddImage(fresh, bad) = %v, want a block 900 rejection", err)
	}
	if _, err := s.Image("fresh"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected image registered: %v", err)
	}
	if imgs := s.Images(); len(imgs) != 0 {
		t.Fatalf("Images() after a rejected upload = %v", imgs)
	}

	if _, err := s.AddImage("prog", good); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddImage("prog", bad); err == nil {
		t.Fatal("failing replacement accepted")
	}
	got, err := fullText(s, "prog")
	if err != nil || string(got) != string(text) {
		t.Fatalf("old image after a rejected replacement: %d bytes, %v", len(got), err)
	}
	waitGoroutines(t, base)
}

// BenchmarkRomserverAddImage measures registration of a gcc-profile
// 32-byte SAMC image (about 10k blocks): unmarshal, then the sidecar
// pass that decodes and checksums every block before the image is
// published. It exports blocks/op; cmd/bench gates allocs/op, which
// must not grow with the block count.
func BenchmarkRomserverAddImage(b *testing.B) {
	data := marshalSAMC(b, codecomp.GenerateMIPS(codecomp.MustProfile("gcc")).Text())
	s := New(Options{})
	defer s.Close()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	blocks := 0
	for i := 0; i < b.N; i++ {
		info, err := s.AddImage("gcc", data)
		if err != nil {
			b.Fatal(err)
		}
		blocks += info.Blocks
	}
	b.StopTimer()
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
