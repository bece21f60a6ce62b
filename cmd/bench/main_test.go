package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codecomp/internal/tiering"
)

// baseline loads a committed baseline from the repository root.
func baseline(t *testing.T, file string) *report {
	t.Helper()
	r, err := load(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func suiteFor(t *testing.T, file string) suite {
	t.Helper()
	for _, st := range suites {
		if st.file == file {
			return st
		}
	}
	t.Fatalf("no suite writes %s", file)
	return suite{}
}

// checkCopies gates fresh against base, after mutate has edited one or
// both, each a private copy of the committed file.
func checkCopies(t *testing.T, file string, mutate func(fresh, base *report)) []string {
	t.Helper()
	fresh, base := baseline(t, file), baseline(t, file)
	mutate(fresh, base)
	var out bytes.Buffer
	g := gates{w: &out}
	suiteFor(t, file).check(&g, fresh, base)
	t.Logf("gate output:\n%s", out.String())
	return g.failed
}

// set edits one benchmark of r in place.
func set(r *report, name string, edit func(*result)) {
	b := r.Benchmarks[name]
	edit(&b)
	r.Benchmarks[name] = b
}

func TestBaselinesPassTheirOwnCheck(t *testing.T) {
	for _, st := range suites {
		if failed := checkCopies(t, st.file, func(_, _ *report) {}); len(failed) != 0 {
			t.Errorf("%s fails its own check: %q", st.file, failed)
		}
	}
}

// TestEachGateCanFail pushes one value just past each gate's limit and
// expects that gate, and only it, to fail.
func TestEachGateCanFail(t *testing.T) {
	const (
		decode = "BENCH_decode.json"
		encode = "BENCH_encode.json"
		obsv   = "BENCH_obsv.json"
	)
	type row struct {
		name, file, want string
		mutate           func(fresh, base *report)
	}
	var rows []row
	for _, p := range pairs {
		codec := p.codec
		rows = append(rows, row{codec + " speedup", decode, codec + " ", func(f, b *report) {
			s := f.Speedups[codec]
			s.Speedup = b.Speedups[codec].Speedup * (1 - decodeTolerance) * 0.99
			f.Speedups[codec] = s
		}})
	}
	rows = append(rows,
		row{"speedup without baseline entry", decode, "kozuch   speedup has no baseline entry", func(_, b *report) {
			delete(b.Speedups, "kozuch")
		}},
		row{"rans ratio", decode, "rans     ratio", func(f, _ *report) {
			samc := f.Benchmarks["codecomp/DecompressSAMC"].Ratio
			set(f, "codecomp/DecompressRANS", func(r *result) { r.Ratio = samc * 1.06 })
		}},
		row{"rans MB/s", decode, "rans     decode", func(f, _ *report) {
			f.RANSDecodeSpeedup = 3.9
		}},
		row{"samc pair speedup", decode, "samc     pair decode", func(f, _ *report) {
			f.SAMCPairSpeedup = pairFloor * 0.99
		}},
		row{"miss allocs", decode, "miss path", func(f, _ *report) {
			set(f, "romserver/RomserverMiss", func(r *result) { r.AllocsPerOp = 2 })
		}},
		row{"hit allocs", decode, "hit path", func(f, _ *report) {
			set(f, "romserver/RomserverHit", func(r *result) { r.AllocsPerOp = 1 })
		}},
		row{"hit ns", decode, "hit path", func(f, _ *report) {
			miss := f.Benchmarks["romserver/RomserverMiss"].NsPerOp
			set(f, "romserver/RomserverHit", func(r *result) { r.NsPerOp = miss * 0.11 })
		}},
		row{"cold range allocs", decode, "cold range", func(f, _ *report) {
			set(f, "romserver/RomserverColdRange", func(r *result) { r.AllocsPerOp = r.DecodesPerOp + 9 })
		}},
		row{"cold text dispatches", decode, "cold text", func(f, _ *report) {
			set(f, "romserver/RomserverTextCold", func(r *result) { r.DispatchesPerOp = r.WindowsPerOp + 1 })
		}},
		row{"cold text allocs", decode, "cold text", func(f, _ *report) {
			set(f, "romserver/RomserverTextCold", func(r *result) { r.AllocsPerOp = r.DecodesPerOp + 8*r.WindowsPerOp + 1 })
		}},
		row{"cached ReadAt allocs", decode, "CachedReadAt", func(f, _ *report) {
			set(f, "romserver/RomserverCachedReadAt", func(r *result) { r.AllocsPerOp = 1 })
		}},
		row{"cached ReadAt bytes", decode, "CachedReadAt", func(f, _ *report) {
			set(f, "romserver/RomserverCachedReadAt", func(r *result) { r.BytesPerOp = 1 })
		}},
		row{"warm range allocs", decode, "WarmRange", func(f, _ *report) {
			set(f, "romserver/RomserverWarmRange", func(r *result) { r.AllocsPerOp = 1 })
		}},
		row{"warm range bytes", decode, "WarmRange", func(f, _ *report) {
			set(f, "romserver/RomserverWarmRange", func(r *result) { r.BytesPerOp = 1 })
		}},
		row{"sub-block decodes whole block", decode, "sub-block miss", func(f, _ *report) {
			set(f, "romserver/RomserverSubblockMiss", func(r *result) { r.DecodedBPerOp = 4096 })
		}},
		row{"sub-block decodes nothing", decode, "sub-block miss", func(f, _ *report) {
			set(f, "romserver/RomserverSubblockMiss", func(r *result) { r.DecodedBPerOp = 0 })
		}},
		row{"add image allocs", decode, "add image", func(f, _ *report) {
			set(f, "romserver/RomserverAddImage", func(r *result) { r.AllocsPerOp = 129 })
		}},
		row{"observe overhead", obsv, "observe overhead", func(f, b *report) {
			f.ObserveOverhead = b.ObserveOverhead * (1 + obsvTolerance) * 1.01
		}},
	)
	for _, p := range encodePairs {
		codec, fast, floor := p.codec, p.fast, p.floor
		rows = append(rows,
			row{codec + " encode speedup", encode, fmt.Sprintf("%-8s encode speedup", codec), func(f, _ *report) {
				s := f.Speedups[codec]
				s.Speedup = floor * 0.99
				f.Speedups[codec] = s
			}},
			row{codec + " encode allocs", encode, fmt.Sprintf("%-8s encode 2 allocs", codec), func(f, _ *report) {
				set(f, fast, func(r *result) { r.AllocsPerOp = 2 })
			}},
		)
	}
	for _, name := range []string{"Observe", "CounterInc", "HistogramObserve"} {
		rows = append(rows, row{name + " allocs", obsv, name + " ", func(f, _ *report) {
			set(f, name, func(r *result) { r.AllocsPerOp = 1 })
		}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			failed := checkCopies(t, r.file, r.mutate)
			if len(failed) != 1 || !strings.Contains(failed[0], r.want) {
				t.Fatalf("failed gates %q, want exactly one containing %q", failed, r.want)
			}
		})
	}
}

func TestMissingGatedBenchmarkFails(t *testing.T) {
	gated := map[string][]string{
		"BENCH_decode.json": {
			"codecomp/DecompressRANS", "codecomp/DecompressSAMC", "samc/DecompressBlockPair",
			"romserver/RomserverMiss", "romserver/RomserverHit",
			"romserver/RomserverColdRange", "romserver/RomserverTextCold",
			"romserver/RomserverCachedReadAt", "romserver/RomserverWarmRange",
			"romserver/RomserverSubblockMiss", "romserver/RomserverAddImage",
		},
		"BENCH_encode.json": {"rans/EncodeBlock", "samc/EncodeBlock"},
		"BENCH_obsv.json":   {"Observe", "CounterInc", "HistogramObserve"},
	}
	for file, names := range gated {
		for _, name := range names {
			failed := checkCopies(t, file, func(f, _ *report) { delete(f.Benchmarks, name) })
			if len(failed) == 0 || !strings.Contains(strings.Join(failed, "\n"), name+" missing") {
				t.Errorf("%s: deleting %s: failed gates %q", file, name, failed)
			}
		}
	}
}

func TestBaselinesRoundTrip(t *testing.T) {
	for _, st := range suites {
		want, err := os.ReadFile(filepath.Join("..", "..", st.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := encode(baseline(t, st.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s does not re-marshal byte for byte", st.file)
		}
	}
}

// TestSamplesPadMissingPasses feeds two passes of go test output in which
// the reference benchmark is missing from the first: the pass is padded
// with zero and skipped by the ratio, and a pair with a missing side is
// an error.
func TestSamplesPadMissingPasses(t *testing.T) {
	s := make(samples)
	s.add([]byte("BenchmarkDecode-2  1000  20.0 ns/op  0 B/op  0 allocs/op\n"), "codecomp/internal/huffman", true, 0)
	s.add([]byte("goos: linux\nBenchmarkDecode-2  1000  10.0 ns/op\nBenchmarkDecodeSerial-2  1000  30.0 ns/op\nPASS\n"), "codecomp/internal/huffman", true, 1)
	if got := s["huffman/DecodeSerial"]["ns/op"]; len(got) != 2 || got[0] != 0 || got[1] != 30 {
		t.Fatalf("padded reference samples %v, want [0 30]", got)
	}
	if r, err := s.passRatio("huffman/DecodeSerial", "huffman/Decode", "ns/op"); err != nil || r != 3 {
		t.Fatalf("passRatio = %v, %v; want 3", r, err)
	}
	if _, err := s.passRatio("huffman/Decode", "huffman/Missing", "ns/op"); err == nil {
		t.Fatal("passRatio over a missing benchmark succeeded")
	}
	if got := s.medians(2).Benchmarks["huffman/Decode"]; got.NsPerOp != 15 || got.Samples != 2 {
		t.Fatalf("median %+v, want 15 ns/op over 2 samples", got)
	}
}

// TestDefaultCostModelMatchesBaseline checks that tiering.DefaultCostModel
// still prices Huffman and rANS decodes, relative to SAMC, within 25% of
// what the committed AppendBlock throughputs imply (ns/byte ∝ 1/MB/s).
// The rANS tier is priced from the single-state image the tiers serve,
// and tiering.RANS4Cost from the 4-state standalone image.
func TestDefaultCostModelMatchesBaseline(t *testing.T) {
	const tolerance = 0.25
	b := baseline(t, "BENCH_decode.json").Benchmarks
	samc := b["samc/AppendBlock"].MBPerSec
	m := tiering.DefaultCostModel
	for _, c := range []struct {
		name, bench string
		cost        float64
	}{
		{tiering.TierHuffman, "kozuch/AppendBlock", m[tiering.TierHuffman]},
		{tiering.TierRANS, "rans/AppendBlockN1", m[tiering.TierRANS]},
		{"4-state rans", "rans/AppendBlock", tiering.RANS4Cost},
	} {
		mbps := b[c.bench].MBPerSec
		if mbps == 0 || samc == 0 {
			t.Fatalf("%s or samc/AppendBlock MB/s missing from BENCH_decode.json", c.bench)
		}
		model, measured := c.cost/m[tiering.TierSAMC], samc/mbps
		if dev := model/measured - 1; math.Abs(dev) > tolerance {
			t.Errorf("%s costs %.3f of SAMC in the model, %.3f by %s: %+.1f%%, tolerance %.0f%%",
				c.name, model, measured, c.bench, 100*dev, 100*tolerance)
		}
	}
}
