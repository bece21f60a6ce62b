// Benchmark harness: one benchmark per paper figure plus the ablations the
// paper's text implies. Each figure benchmark regenerates its table and
// prints it once (so `go test -bench=. -benchmem` reproduces the paper's
// rows), and reports the headline ratios as benchmark metrics.
//
// By default the figure benchmarks run on the 4-benchmark quick subset so
// the whole harness finishes in a couple of minutes; set FULL_SUITE=1 to
// run all 18 SPEC95 profiles exactly as cmd/figures does.
package codecomp_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"codecomp"
	"codecomp/internal/blockcache"
	"codecomp/internal/experiments"
	"codecomp/internal/synth"
)

func benchProfiles() []synth.Profile {
	if os.Getenv("FULL_SUITE") != "" {
		return synth.SPEC95
	}
	return experiments.QuickProfiles()
}

var printOnce sync.Map

func printTable(b *testing.B, tbl experiments.Table) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(tbl.Title, true); !done {
		fmt.Printf("\n%s\n", tbl.String())
	}
}

// reportAvg attaches each column's average as a benchmark metric.
func reportAvg(b *testing.B, tbl experiments.Table) {
	b.Helper()
	for ci, col := range tbl.Columns {
		sum, n := 0.0, 0
		for _, r := range tbl.Rows {
			if ci < len(r.Cells) {
				sum += r.Cells[ci]
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), col+"-avg")
		}
	}
}

func BenchmarkFigure7MIPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure7(benchProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkFigure8X86(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure8(benchProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkFigure9Average(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure9(benchProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	p, _ := synth.ProfileByName("go")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationBlockSize(p, []int{16, 32, 64, 128})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationConnectedTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationConnected(experiments.QuickProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationQuantizedProbs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationQuantized(experiments.QuickProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationStreamSplit(b *testing.B) {
	p, _ := synth.ProfileByName("go")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationStreams(p)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationDictSize(b *testing.B) {
	p, _ := synth.ProfileByName("go")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationDictSize(p)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkMemSystem(b *testing.B) {
	p, _ := synth.ProfileByName("gcc")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.MemSystemSweep(p, []int{1, 2, 4, 8, 16, 32}, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkHardwareModels(b *testing.B) {
	p, _ := synth.ProfileByName("go")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.HardwareTable(p)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAdaptiveVsSemiadaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AdaptiveVsSemiadaptive(experiments.QuickProfiles())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkAblationProbPrecision(b *testing.B) {
	p, _ := synth.ProfileByName("go")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationProbPrecision(p)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

func BenchmarkCLBSweep(b *testing.B) {
	p, _ := synth.ProfileByName("gcc")
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.CLBSweep(p, 1_500_000)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, tbl)
		reportAvg(b, tbl)
	}
}

// Throughput benchmarks for the codec paths themselves.

func benchText(b *testing.B) []byte {
	b.Helper()
	return codecomp.GenerateMIPS(codecomp.MustProfile("compress")).Text()
}

func BenchmarkCompressSAMC(b *testing.B) {
	text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSADC(b *testing.B) {
	text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressSAMC(b *testing.B) {
	text := benchText(b)
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Block(i % img.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop — ResetTimer deletes user metrics. Exported so the
	// benchdecode gate can compare codec ratios on the same corpus
	// alongside their throughputs.
	b.ReportMetric(img.Ratio(), "ratio")
}

func BenchmarkDecompressSADC(b *testing.B) {
	text := benchText(b)
	img, err := codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Block(i % img.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressSAMCParallel(b *testing.B) {
	text := benchText(b)
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := img.BlockParallel(i % img.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressRANS(b *testing.B) {
	text := benchText(b)
	img, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, img.BlockSize)
	b.SetBytes(int64(img.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = img.AppendBlock(dst[:0], i%img.NumBlocks())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(img.Ratio(), "ratio")
}

func BenchmarkDecompressHuffman(b *testing.B) {
	text := benchText(b)
	img, err := codecomp.CompressHuffman(text, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Block(i % img.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving-layer benchmarks: the blockcache sits in front of every
// decompression in codecompd, so its overhead belongs in the same perf
// trajectory as the codec paths above.

func blockCacheImage(b *testing.B) *codecomp.SAMCImage {
	b.Helper()
	img, err := codecomp.CompressSAMC(benchText(b), codecomp.SAMCOptions{Connected: true})
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkBlockCacheHit measures the steady-state fast path: every Get is
// served from the LRU, across shards, under full parallelism.
func BenchmarkBlockCacheHit(b *testing.B) {
	img := blockCacheImage(b)
	n := img.NumBlocks()
	c := blockcache.New(n, 16)
	for i := 0; i < n; i++ {
		if _, _, err := c.Get(blockcache.Key{Image: 1, Block: uint32(i)}, func() ([]byte, error) { return img.Block(i) }); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			_, hit, err := c.Get(blockcache.Key{Image: 1, Block: uint32(i % n)}, func() ([]byte, error) {
				return nil, fmt.Errorf("miss on warmed cache")
			})
			if err != nil || !hit {
				b.Fatal("expected a hit")
			}
		}
	})
}

// BenchmarkBlockCacheMiss measures the cold path: a capacity-starved cache
// so every Get evicts and runs a real SAMC block decompression — the cache
// overhead on top of BenchmarkDecompressSAMC.
func BenchmarkBlockCacheMiss(b *testing.B) {
	img := blockCacheImage(b)
	n := img.NumBlocks()
	c := blockcache.New(16, 4) // far smaller than the image: misses forever
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i % n
		_, _, err := c.Get(blockcache.Key{Image: 1, Block: uint32(blk)}, func() ([]byte, error) {
			return img.Block(blk)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockCacheSingleflight measures the contended path: many
// goroutines chase the same small rotating key window through a cache too
// small to hold it, so Gets constantly collide on in-flight loads and the
// dedup machinery (not just the LRU) carries the traffic.
func BenchmarkBlockCacheSingleflight(b *testing.B) {
	img := blockCacheImage(b)
	n := img.NumBlocks()
	c := blockcache.New(8, 2)
	var next atomic.Int64
	b.SetBytes(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// All goroutines advance one shared, slowly-moving window of 4
			// keys: most Gets hit a key someone else is already loading.
			blk := int(next.Add(1)/64) % n
			_, _, err := c.Get(blockcache.Key{Image: 1, Block: uint32(blk)}, func() ([]byte, error) {
				return img.Block(blk)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	st := c.Stats()
	b.ReportMetric(float64(st.Deduped)/float64(b.N), "deduped/op")
	b.ReportMetric(float64(st.Misses)/float64(b.N), "miss/op")
}
