// bench measures the repository's in-process benchmark suites and writes
// their committed baselines, BENCH_decode.json (the block decoders and the
// romserver serving paths), BENCH_encode.json (the SAMC and rANS block
// encoders) and BENCH_obsv.json (the metrics hot path on every block load
// and request), or with -check gates a fresh run against them.
//
// Every number is the median of N passes (5 by default), each pass one
// `go test -run NONE -bench ... -benchmem -count 1` subprocess per package.
// One subprocess per pass, not one with -count N: go test runs a
// benchmark's repetitions back to back, so on a machine whose clock drifts
// over tens of seconds (shared VMs) the two sides of a ratio would be
// measured in different phases. Ratios are taken per pass, median kept.
//
// Absolute ns/op does not travel between machines, so -check gates only
// same-pass ratios and machine-independent budgets (each gate's reason is
// at its check): every codec's fast-vs-reference decode speedup at least
// 0.8x its baseline's, rANS's at both its default N=4 and the N=1 the
// tiers serve; rANS's compression ratio at most 1.05x and its
// decode MB/s at least 4x SAMC's in the same pass; the romserver miss at
// most 1 alloc/op; a cached hit at 0 allocs/op and at most 0.1x the miss's
// ns/op; a cold 4 KiB range read at most one alloc per decoded block plus
// 8; a cold text read at most one dispatch per window, and one alloc per
// decoded block plus 8 per window; the warm CachedReadAt and WarmRange
// reads at 0 allocs/op and 0 B/op; a sub-block miss decoding strictly
// between 0 and 4096 bytes; a 10k-block image registering in at most 128
// allocs/op; the SAMC block encoder at least 1.5x faster than its
// bit-serial reference and the rANS block encoder at least 1.3x faster
// than the one it replaced, each at most 1 alloc/op; Observe, CounterInc
// and HistogramObserve at 0 allocs/op; and the observe path's overhead
// over a bare atomic add at most 1.3x its baseline's. A gated benchmark
// missing from the fresh run fails its gate.
//
// Usage, from the repository root:
//
//	go run ./cmd/bench             # measure, rewrite every baseline
//	go run ./cmd/bench -check      # measure, gate against every baseline
//	go run ./cmd/bench -count 3    # quicker, noisier
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is the median of one benchmark's passes. The optional fields are
// metrics a benchmark exports with b.ReportMetric for a gate to read.
type result struct {
	NsPerOp         float64 `json:"ns_per_op"`
	MBPerSec        float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	Ratio           float64 `json:"ratio,omitempty"`             // compression ratio on the corpus
	DecodedBPerOp   float64 `json:"decoded_b_per_op,omitempty"`  // codec output bytes per op
	DecodesPerOp    float64 `json:"decodes_per_op,omitempty"`    // block decodes per op
	DispatchesPerOp float64 `json:"dispatches_per_op,omitempty"` // pool tickets per text read
	WindowsPerOp    float64 `json:"windows_per_op,omitempty"`    // windows a text read spans
	BlocksPerOp     float64 `json:"blocks_per_op,omitempty"`     // blocks of the registered image
	Samples         int     `json:"samples"`
}

// speedup is one codec's fast-vs-reference ratio.
type speedup struct {
	FastNs      float64 `json:"fast_ns"`
	ReferenceNs float64 `json:"reference_ns"`
	Speedup     float64 `json:"speedup"`
}

// report is the schema of both baseline files; each suite fills only the
// derived fields it owns.
type report struct {
	GeneratedBy string            `json:"generated_by"`
	GoVersion   string            `json:"go_version"`
	GOARCH      string            `json:"goarch"`
	Runs        int               `json:"runs"`
	Benchmarks  map[string]result `json:"benchmarks"`
	// Speedups holds each codec's median per-pass speedup (decode and
	// encode suites).
	Speedups map[string]speedup `json:"speedups,omitempty"`
	// RANSDecodeSpeedup is rANS's decode MB/s as a multiple of SAMC's,
	// median of per-pass ratios (decode suite).
	RANSDecodeSpeedup float64 `json:"rans_decode_speedup,omitempty"`
	// PrePRNs records the block-decode latencies measured at the commit
	// before the fast path landed. Historical constants, not remeasured.
	PrePRNs map[string]float64 `json:"pre_pr_ns,omitempty"`
	// ObserveOverhead is the combined counter+histogram observe path as a
	// multiple of a bare atomic add, median of per-pass ratios (obsv suite).
	ObserveOverhead float64 `json:"observe_overhead,omitempty"`
}

// samples maps benchmark → unit → one value per pass.
type samples map[string]map[string][]float64

// suite is one baseline file and how to measure, derive and gate it.
type suite struct {
	file   string
	prefix bool        // names benchmarks "<package>/<Name>", not "<Name>"
	pkgs   [][2]string // package, -bench regex
	derive func(*report, samples) error
	check  func(g *gates, fresh, base *report)
}

const (
	decodeBenches = "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock)$"
	encodeBenches = "^(BenchmarkEncodeBlock|BenchmarkEncodeBlockReference)$"
	// decodeTolerance is how far a codec's speedup may fall below its
	// baseline; obsvTolerance how far the observe overhead may rise above.
	decodeTolerance = 0.20
	obsvTolerance   = 0.30
)

var suites = []suite{
	{
		file:   "BENCH_decode.json",
		prefix: true,
		pkgs: [][2]string{
			{"codecomp/internal/samc", decodeBenches},
			{"codecomp/internal/sadc", decodeBenches},
			{"codecomp/internal/kozuch", decodeBenches},
			{"codecomp/internal/rans", "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock|BenchmarkAppendBlockN1|BenchmarkDecompressBlockReferenceN1)$"},
			{"codecomp/internal/huffman", "^(BenchmarkDecode|BenchmarkDecodeSerial)$"},
			{"codecomp/internal/romserver", "^(BenchmarkRomserverMiss|BenchmarkRomserverHit|BenchmarkRomserverColdRange|BenchmarkRomserverTextCold|BenchmarkRomserverCachedReadAt|BenchmarkRomserverWarmRange|BenchmarkRomserverSubblockMiss|BenchmarkRomserverAddImage)$"},
			{"codecomp", "^(BenchmarkDecompressSAMC|BenchmarkDecompressSADC|BenchmarkDecompressHuffman|BenchmarkDecompressRANS)$"},
		},
		derive: deriveDecode,
		check:  checkDecode,
	},
	{
		file:   "BENCH_encode.json",
		prefix: true,
		pkgs: [][2]string{
			{"codecomp/internal/rans", encodeBenches},
			{"codecomp/internal/samc", encodeBenches},
		},
		derive: deriveEncode,
		check:  checkEncode,
	},
	{
		file: "BENCH_obsv.json",
		pkgs: [][2]string{
			{"codecomp/internal/obsv", "^(BenchmarkObserve|BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkAtomicAddReference|BenchmarkObserveParallel|BenchmarkWritePrometheus)$"},
		},
		derive: deriveObsv,
		check:  checkObsv,
	},
}

// pairs names the fast and reference benchmarks behind each speedup, in
// codec name order so -check prints them in a stable order. rans-n1 is
// the single-state rANS image the tiering layer serves.
var pairs = []struct{ codec, fast, ref string }{
	{"huffman", "huffman/Decode", "huffman/DecodeSerial"},
	{"kozuch", "kozuch/DecompressBlock", "kozuch/DecompressBlockReference"},
	{"rans", "rans/DecompressBlock", "rans/DecompressBlockReference"},
	{"rans-n1", "rans/AppendBlockN1", "rans/DecompressBlockReferenceN1"},
	{"sadc", "sadc/DecompressBlock", "sadc/DecompressBlockReference"},
	{"samc", "samc/DecompressBlock", "samc/DecompressBlockReference"},
}

// prePR is the block-decode latency on the reference machine at the
// commit before the fast path, captured once from a seed worktree.
var prePR = map[string]float64{
	"codecomp/DecompressSAMC":    3313,
	"codecomp/DecompressSADC":    2309,
	"codecomp/DecompressHuffman": 733.3,
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// add merges one pass's `go test -bench` output for pkg into s. A metric
// missing from earlier passes is padded with zeros, so index i stays pass
// i; ratios skip the zero passes.
func (s samples) add(out []byte, pkg string, prefix bool, pass int) {
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if prefix {
			name = path.Base(pkg) + "/" + name
		}
		if s[name] == nil {
			s[name] = make(map[string][]float64)
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metric := s[name][fields[i+1]]
			for len(metric) < pass {
				metric = append(metric, 0)
			}
			s[name][fields[i+1]] = append(metric, v)
		}
	}
}

// passRatio is the median over passes of num's unit value divided by
// den's.
func (s samples) passRatio(num, den, unit string) (float64, error) {
	n, d := s[num][unit], s[den][unit]
	if len(n) == 0 || len(n) != len(d) {
		return 0, fmt.Errorf("missing benchmark pair %s/%s", num, den)
	}
	var ratios []float64
	for i := range n {
		if n[i] > 0 && d[i] > 0 {
			ratios = append(ratios, n[i]/d[i])
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("no valid passes for %s/%s", num, den)
	}
	return median(ratios), nil
}

// medians reduces the samples to a report of per-benchmark medians.
func (s samples) medians(count int) *report {
	rep := &report{
		GeneratedBy: "cmd/bench",
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		Runs:        count,
		Benchmarks:  make(map[string]result),
	}
	for name, m := range s {
		rep.Benchmarks[name] = result{
			NsPerOp:         median(m["ns/op"]),
			MBPerSec:        median(m["MB/s"]),
			AllocsPerOp:     median(m["allocs/op"]),
			BytesPerOp:      median(m["B/op"]),
			Ratio:           median(m["ratio"]),
			DecodedBPerOp:   median(m["decodedB/op"]),
			DecodesPerOp:    median(m["decodes/op"]),
			DispatchesPerOp: median(m["dispatches/op"]),
			WindowsPerOp:    median(m["windows/op"]),
			BlocksPerOp:     median(m["blocks/op"]),
			Samples:         len(m["ns/op"]),
		}
	}
	return rep
}

// measure runs count passes of the suite's packages and derives its report.
func (st suite) measure(count int) (*report, error) {
	s := make(samples)
	for pass := 0; pass < count; pass++ {
		for _, p := range st.pkgs {
			fmt.Fprintf(os.Stderr, "pass %d/%d: %s\n", pass+1, count, p[0])
			cmd := exec.Command("go", "test", "-run", "NONE", "-bench", p[1],
				"-benchmem", "-count", "1", p[0])
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p[0], err)
			}
			s.add(out, p[0], st.prefix, pass)
		}
	}
	rep := s.medians(count)
	if err := st.derive(rep, s); err != nil {
		return nil, err
	}
	return rep, nil
}

func deriveDecode(rep *report, s samples) error {
	rep.Speedups = make(map[string]speedup)
	for _, p := range pairs {
		r, err := s.passRatio(p.ref, p.fast, "ns/op")
		if err != nil {
			return fmt.Errorf("%s: %w", p.codec, err)
		}
		rep.Speedups[p.codec] = speedup{rep.Benchmarks[p.fast].NsPerOp, rep.Benchmarks[p.ref].NsPerOp, r}
	}
	r, err := s.passRatio("codecomp/DecompressRANS", "codecomp/DecompressSAMC", "MB/s")
	if err != nil {
		return fmt.Errorf("rans decode: %w", err)
	}
	rep.RANSDecodeSpeedup = r
	rep.PrePRNs = prePR
	return nil
}

// encodePairs names each block encoder's fast and reference benchmarks
// and the least per-pass speedup the fast encoder may show over the
// reference it replaced. The floors are fixed, not relative to the
// baseline, so rewriting the baseline cannot lower them.
var encodePairs = []struct {
	codec, fast, ref string
	floor            float64
}{
	{"rans", "rans/EncodeBlock", "rans/EncodeBlockReference", 1.3},
	{"samc", "samc/EncodeBlock", "samc/EncodeBlockReference", 1.5},
}

func deriveEncode(rep *report, s samples) error {
	rep.Speedups = make(map[string]speedup)
	for _, p := range encodePairs {
		r, err := s.passRatio(p.ref, p.fast, "ns/op")
		if err != nil {
			return fmt.Errorf("%s encode: %w", p.codec, err)
		}
		rep.Speedups[p.codec] = speedup{rep.Benchmarks[p.fast].NsPerOp, rep.Benchmarks[p.ref].NsPerOp, r}
	}
	return nil
}

func deriveObsv(rep *report, s samples) (err error) {
	rep.ObserveOverhead, err = s.passRatio("Observe", "AtomicAddReference", "ns/op")
	return err
}

// gates prints every gate's line and collects the lines of those that fail.
type gates struct {
	w      io.Writer
	failed []string
}

func (g *gates) gate(ok bool, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "REGRESSION"
		g.failed = append(g.failed, line)
	}
	fmt.Fprintf(g.w, "%s %s\n", line, status)
}

// bench returns the fresh run's named benchmark; a missing one fails.
func (g *gates) bench(fresh *report, name string) (result, bool) {
	b, ok := fresh.Benchmarks[name]
	if !ok {
		g.gate(false, "%s missing from fresh run", name)
	}
	return b, ok
}

func checkDecode(g *gates, fresh, base *report) {
	for _, p := range pairs {
		b, ok := base.Speedups[p.codec]
		if !ok {
			g.gate(false, "%-8s speedup has no baseline entry", p.codec)
			continue
		}
		got, floor := fresh.Speedups[p.codec].Speedup, b.Speedup*(1-decodeTolerance)
		g.gate(got >= floor, "%-8s speedup %.2fx (baseline %.2fx, floor %.2fx)",
			p.codec, got, b.Speedup, floor)
	}
	// On the SAMC corpus the interleaved rANS codec must compress within
	// 5% of SAMC's ratio and decode at least 4x its MB/s: the software
	// analogue of the paper's nibble-parallel decoder has to buy speed
	// without giving back density. The speed floor gates the per-pass
	// ratio, like the speedups: medians measured in different passes
	// drift with the machine.
	rans, okR := g.bench(fresh, "codecomp/DecompressRANS")
	samc, okS := g.bench(fresh, "codecomp/DecompressSAMC")
	if okR && okS {
		g.gate(rans.Ratio > 0 && samc.Ratio > 0 && rans.Ratio <= samc.Ratio*1.05,
			"%-8s ratio %.4f (samc %.4f, ceiling %.4f)", "rans", rans.Ratio, samc.Ratio, samc.Ratio*1.05)
		g.gate(fresh.RANSDecodeSpeedup >= 4,
			"%-8s decode %.2fx samc MB/s per pass (median %.2f vs %.2f MB/s, floor 4x)",
			"rans", fresh.RANSDecodeSpeedup, rans.MBPerSec, samc.MBPerSec)
	}
	miss, okM := g.bench(fresh, "romserver/RomserverMiss")
	if okM {
		g.gate(miss.AllocsPerOp <= 1, "serving  miss path %.0f allocs/op (budget 1)", miss.AllocsPerOp)
	}
	// A cached demand read never leaves the caller, so it costs no
	// allocation and a small fraction of a miss measured in the same
	// run. A hit that waits on a pool worker costs about a third of a miss.
	if hit, ok := g.bench(fresh, "romserver/RomserverHit"); ok && okM {
		const hitMissCeiling = 0.1
		ratio := hit.NsPerOp / miss.NsPerOp
		g.gate(miss.NsPerOp > 0 && hit.AllocsPerOp == 0 && ratio <= hitMissCeiling,
			"serving  hit path %.0f allocs/op, %.0f ns = %.3f of a miss (budget 0, %.1f)",
			hit.AllocsPerOp, hit.NsPerOp, ratio, hitMissCeiling)
	}
	// A page-in may allocate one cached copy per decoded block plus a
	// fixed per-read overhead: nothing per block for the decode deadline.
	if cold, ok := g.bench(fresh, "romserver/RomserverColdRange"); ok {
		budget := cold.DecodesPerOp + 8
		g.gate(cold.DecodesPerOp > 0 && cold.AllocsPerOp <= budget,
			"serving  cold range %.0f allocs/op at %.0f decodes/op (budget %.0f)",
			cold.AllocsPerOp, cold.DecodesPerOp, budget)
	}
	// The pipelined whole-image read takes at most one pool ticket per
	// window, and allocates one cached copy per decoded block plus a fixed
	// overhead per window.
	if text, ok := g.bench(fresh, "romserver/RomserverTextCold"); ok {
		budget := text.DecodesPerOp + 8*text.WindowsPerOp
		g.gate(text.DecodesPerOp > 0 && text.WindowsPerOp > 0 &&
			text.DispatchesPerOp <= text.WindowsPerOp && text.AllocsPerOp <= budget,
			"serving  cold text %.1f dispatches/op (%.0f windows), %.0f allocs/op at %.0f decodes/op (budget %.0f)",
			text.DispatchesPerOp, text.WindowsPerOp, text.AllocsPerOp, text.DecodesPerOp, budget)
	}
	// The warm lease-backed read paths stay allocation-free.
	for _, name := range []string{"CachedReadAt", "WarmRange"} {
		if warm, ok := g.bench(fresh, "romserver/Romserver"+name); ok {
			g.gate(warm.AllocsPerOp == 0 && warm.BytesPerOp == 0,
				"serving  %s %.0f allocs/op %.0f B/op (budget 0/0)", name, warm.AllocsPerOp, warm.BytesPerOp)
		}
	}
	// A sub-block miss decodes strictly less than its 4 KiB block.
	if sub, ok := g.bench(fresh, "romserver/RomserverSubblockMiss"); ok {
		const blockSize = 4096 // keep in sync with BenchmarkRomserverSubblockMiss
		g.gate(sub.DecodedBPerOp > 0 && sub.DecodedBPerOp < blockSize,
			"serving  sub-block miss %.0f decoded B/op (block size %d)", sub.DecodedBPerOp, blockSize)
	}
	// The sidecar pass decodes every block into a reused buffer per chunk,
	// so registering a 10k-block image does not allocate per block.
	if add, ok := g.bench(fresh, "romserver/RomserverAddImage"); ok {
		const addImageAllocs = 128
		g.gate(add.BlocksPerOp > 0 && add.AllocsPerOp <= addImageAllocs,
			"serving  add image %.0f allocs/op at %.0f blocks/op (budget %d)",
			add.AllocsPerOp, add.BlocksPerOp, addImageAllocs)
	}
}

// checkEncode gates each block encoder's speedup at its fixed floor, and
// its allocations at one per block: the payload it returns.
func checkEncode(g *gates, fresh, _ *report) {
	for _, p := range encodePairs {
		got := fresh.Speedups[p.codec].Speedup
		g.gate(got >= p.floor, "%-8s encode speedup %.2fx (floor %.2fx)", p.codec, got, p.floor)
		if b, ok := g.bench(fresh, p.fast); ok {
			g.gate(b.AllocsPerOp <= 1, "%-8s encode %.0f allocs/op (budget 1)", p.codec, b.AllocsPerOp)
		}
	}
}

func checkObsv(g *gates, fresh, base *report) {
	// An allocation on a per-request instrument is a bug in this design,
	// whatever the machine.
	for _, name := range []string{"Observe", "CounterInc", "HistogramObserve"} {
		if b, ok := g.bench(fresh, name); ok {
			g.gate(b.AllocsPerOp == 0, "%-22s %.0f allocs/op (budget 0)", name, b.AllocsPerOp)
		}
	}
	ceiling := base.ObserveOverhead * (1 + obsvTolerance)
	g.gate(fresh.ObserveOverhead <= ceiling,
		"%-22s %.2fx bare atomic add (baseline %.2fx, ceiling %.2fx)",
		"observe overhead", fresh.ObserveOverhead, base.ObserveOverhead, ceiling)
}

func load(file string) (*report, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", file, err)
	}
	return &r, nil
}

// encode renders r in the committed files' layout.
func encode(r *report) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	return append(data, '\n'), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	doCheck := flag.Bool("check", false, "gate a fresh run against the committed baselines instead of rewriting them")
	count := flag.Int("count", 5, "passes per package (median kept)")
	flag.Parse()

	var failed []string
	for _, st := range suites {
		var base *report
		var err error
		if *doCheck {
			if base, err = load(st.file); err != nil {
				fatal(err)
			}
		}
		fresh, err := st.measure(*count)
		if err != nil {
			fatal(err)
		}
		if *doCheck {
			g := gates{w: os.Stdout}
			st.check(&g, fresh, base)
			failed = append(failed, g.failed...)
			continue
		}
		data, err := encode(fresh)
		if err == nil {
			err = os.WriteFile(st.file, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", st.file)
	}
	if len(failed) > 0 {
		fatal(fmt.Errorf("%d gate(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  ")))
	}
	if *doCheck {
		fmt.Println("every gate within its limit")
	}
}
