// benchdecode runs the decode fast-path benchmark suite and writes
// BENCH_decode.json, the repository's performance baseline for the block
// decoders and the serving miss path.
//
// Every number comes from `go test -run NONE -bench ... -benchmem -count N`
// subprocesses (N=5 by default) with the median of the N samples kept, so
// one scheduler hiccup cannot skew the baseline.
//
// Because absolute ns/op varies wildly across machines, the regression
// gate (-check) is ratio-based: each codec's fast decoder and its retained
// pre-optimization reference decoder are measured in the same process on
// the same machine, and the fresh fast-vs-reference speedup must stay
// within tolerance (default 20%) of the committed baseline's speedup. The
// serving paths are additionally gated on machine-independent budgets:
// the romserver miss path on its allocation budget (<= 1 alloc/op), the
// cold 4 KiB range read on at most one allocation per decoded block plus
// 8, the cold whole-image text read on at most one dispatch per window
// and one allocation per decoded block plus 8 per window, the warm
// zero-copy read paths (cached sub-block and warm range views) on
// exactly 0 allocs/op and 0 B/op, and the sub-block miss path on its
// decoded-bytes-per-op staying strictly below the block size.
//
// Usage:
//
//	go run ./cmd/benchdecode                # measure, write BENCH_decode.json
//	go run ./cmd/benchdecode -check         # measure, compare against baseline
//	go run ./cmd/benchdecode -count 3       # quicker, noisier
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is the median of one benchmark's samples.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Ratio is the codec's compression ratio on the benchmark corpus,
	// exported via b.ReportMetric — present only for the benchmarks that
	// report it (the rANS-vs-SAMC acceptance gate needs both sides).
	Ratio float64 `json:"ratio,omitempty"`
	// DecodedBPerOp is the mean codec output bytes one op decoded,
	// exported via b.ReportMetric by the sub-block miss benchmark — the
	// partial-decode gate compares it against the block size.
	DecodedBPerOp float64 `json:"decoded_b_per_op,omitempty"`
	// DecodesPerOp is the mean block decodes one op paid for, exported
	// by the cold range and cold text benchmarks — their allocation
	// budgets scale with it.
	DecodesPerOp float64 `json:"decodes_per_op,omitempty"`
	// DispatchesPerOp and WindowsPerOp are the cold text benchmark's
	// pool tickets per read and the windows its image spans: the
	// pipelined read may take at most one ticket per window.
	DispatchesPerOp float64 `json:"dispatches_per_op,omitempty"`
	WindowsPerOp    float64 `json:"windows_per_op,omitempty"`
	Samples         int     `json:"samples"`
}

// speedup is one codec's fast-vs-reference ratio, both sides measured in
// the same run.
type speedup struct {
	FastNs      float64 `json:"fast_ns"`
	ReferenceNs float64 `json:"reference_ns"`
	Speedup     float64 `json:"speedup"`
}

// report is the BENCH_decode.json schema.
type report struct {
	GeneratedBy string             `json:"generated_by"`
	GoVersion   string             `json:"go_version"`
	GOARCH      string             `json:"goarch"`
	Runs        int                `json:"runs"`
	Benchmarks  map[string]result  `json:"benchmarks"`
	Speedups    map[string]speedup `json:"speedups"`
	// PrePRNs records the block-decode latencies measured at the commit
	// before the fast path landed, for the ISSUE 4 acceptance criteria
	// (samc/sadc >= 2x, huffman >= 3x). Historical constants, not remeasured.
	PrePRNs map[string]float64 `json:"pre_pr_ns"`
}

// suite maps packages to the benchmark regex run in each.
var suite = []struct {
	pkg   string
	bench string
}{
	{"codecomp/internal/samc", "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock)$"},
	{"codecomp/internal/sadc", "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock)$"},
	{"codecomp/internal/kozuch", "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock)$"},
	{"codecomp/internal/rans", "^(BenchmarkDecompressBlock|BenchmarkDecompressBlockReference|BenchmarkAppendBlock)$"},
	{"codecomp/internal/huffman", "^(BenchmarkDecode|BenchmarkDecodeSerial)$"},
	{"codecomp/internal/romserver", "^(BenchmarkRomserverMiss|BenchmarkRomserverColdRange|BenchmarkRomserverTextCold|BenchmarkRomserverCachedReadAt|BenchmarkRomserverWarmRange|BenchmarkRomserverSubblockMiss)$"},
	{"codecomp", "^(BenchmarkDecompressSAMC|BenchmarkDecompressSADC|BenchmarkDecompressHuffman|BenchmarkDecompressRANS)$"},
}

// pairs names the fast/reference benchmark pair behind each speedup entry.
var pairs = map[string][2]string{
	"samc":    {"samc/DecompressBlock", "samc/DecompressBlockReference"},
	"sadc":    {"sadc/DecompressBlock", "sadc/DecompressBlockReference"},
	"kozuch":  {"kozuch/DecompressBlock", "kozuch/DecompressBlockReference"},
	"rans":    {"rans/DecompressBlock", "rans/DecompressBlockReference"},
	"huffman": {"huffman/Decode", "huffman/DecodeSerial"},
}

// prePR is the block-decode latency on this benchmark's reference machine
// at the commit before the fast path, captured once from a seed worktree.
var prePR = map[string]float64{
	"codecomp/DecompressSAMC":    3313,
	"codecomp/DecompressSADC":    2309,
	"codecomp/DecompressHuffman": 733.3,
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runPackage executes one -count=1 pass of a package's benchmarks and
// merges the metrics into samples["<shortpkg>/<name>"][metric][pass].
//
// One pass per subprocess rather than one subprocess with -count=N: go
// test runs all repetitions of a benchmark consecutively, so on a machine
// whose effective clock drifts over tens of seconds (shared VMs) the fast
// and reference decoders would be measured in different phases and their
// ratio would be meaningless. Within a single pass they run seconds apart,
// keeping each pass's fast-vs-reference ratio phase-consistent; the gate
// uses the median of per-pass ratios.
func runPackage(pkg, bench string, pass int, samples map[string]map[string][]float64) error {
	cmd := exec.Command("go", "test", "-run", "NONE", "-bench", bench,
		"-benchmem", "-count", "1", pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", pkg, err)
	}
	short := pkg[strings.LastIndex(pkg, "/")+1:]
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := short + "/" + strings.TrimPrefix(m[1], "Benchmark")
		if samples[name] == nil {
			samples[name] = make(map[string][]float64)
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metric := samples[name][fields[i+1]]
			for len(metric) < pass {
				metric = append(metric, 0) // benchmark missing from a pass
			}
			samples[name][fields[i+1]] = append(metric, v)
		}
	}
	return nil
}

func measure(count int) (*report, error) {
	samples := make(map[string]map[string][]float64)
	for pass := 0; pass < count; pass++ {
		for _, s := range suite {
			fmt.Fprintf(os.Stderr, "pass %d/%d: %s\n", pass+1, count, s.pkg)
			if err := runPackage(s.pkg, s.bench, pass, samples); err != nil {
				return nil, err
			}
		}
	}
	rep := &report{
		GeneratedBy: "cmd/benchdecode",
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		Runs:        count,
		Benchmarks:  make(map[string]result),
		Speedups:    make(map[string]speedup),
		PrePRNs:     prePR,
	}
	for name, metrics := range samples {
		rep.Benchmarks[name] = result{
			NsPerOp:         median(append([]float64(nil), metrics["ns/op"]...)),
			MBPerSec:        median(append([]float64(nil), metrics["MB/s"]...)),
			AllocsPerOp:     median(append([]float64(nil), metrics["allocs/op"]...)),
			BytesPerOp:      median(append([]float64(nil), metrics["B/op"]...)),
			Ratio:           median(append([]float64(nil), metrics["ratio"]...)),
			DecodedBPerOp:   median(append([]float64(nil), metrics["decodedB/op"]...)),
			DecodesPerOp:    median(append([]float64(nil), metrics["decodes/op"]...)),
			DispatchesPerOp: median(append([]float64(nil), metrics["dispatches/op"]...)),
			WindowsPerOp:    median(append([]float64(nil), metrics["windows/op"]...)),
			Samples:         len(metrics["ns/op"]),
		}
	}
	for codec, p := range pairs {
		fast, okF := samples[p[0]]
		ref, okR := samples[p[1]]
		if !okF || !okR || len(fast["ns/op"]) != len(ref["ns/op"]) || len(fast["ns/op"]) == 0 {
			return nil, fmt.Errorf("missing benchmark pair for %s (%v)", codec, p)
		}
		// Median of per-pass ratios, not ratio of medians: each pass's
		// numerator and denominator were measured in the same machine phase.
		ratios := make([]float64, 0, len(fast["ns/op"]))
		for i, f := range fast["ns/op"] {
			if f > 0 && ref["ns/op"][i] > 0 {
				ratios = append(ratios, ref["ns/op"][i]/f)
			}
		}
		if len(ratios) == 0 {
			return nil, fmt.Errorf("no valid passes for %s", codec)
		}
		rep.Speedups[codec] = speedup{
			FastNs:      rep.Benchmarks[p[0]].NsPerOp,
			ReferenceNs: rep.Benchmarks[p[1]].NsPerOp,
			Speedup:     median(ratios),
		}
	}
	return rep, nil
}

func check(fresh, baseline *report, tolerance float64) error {
	var failures []string
	for codec, base := range baseline.Speedups {
		got, ok := fresh.Speedups[codec]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from fresh run", codec))
			continue
		}
		floor := base.Speedup * (1 - tolerance)
		status := "ok"
		if got.Speedup < floor {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: fast-vs-reference speedup %.2fx below floor %.2fx (baseline %.2fx)",
					codec, got.Speedup, floor, base.Speedup))
		}
		fmt.Printf("%-8s speedup %.2fx (baseline %.2fx, floor %.2fx) %s\n",
			codec, got.Speedup, base.Speedup, floor, status)
	}
	// rANS acceptance gates: on the same corpus as the SAMC baseline the
	// interleaved codec must compress within 5% of SAMC's ratio and decode
	// at least 4x its MB/s — the software analogue of the paper's
	// nibble-parallel decoder has to buy speed without giving back density.
	ransB, okRans := fresh.Benchmarks["codecomp/DecompressRANS"]
	samcB, okSamc := fresh.Benchmarks["codecomp/DecompressSAMC"]
	if !okRans || !okSamc || ransB.Ratio == 0 || samcB.Ratio == 0 || samcB.MBPerSec == 0 {
		failures = append(failures, "rANS-vs-SAMC gate: DecompressRANS/DecompressSAMC ratio or MB/s missing from fresh run")
	} else {
		status := "ok"
		if ransB.Ratio > samcB.Ratio*1.05 {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("rans ratio %.4f exceeds 1.05x samc ratio %.4f", ransB.Ratio, samcB.Ratio))
		}
		fmt.Printf("%-8s ratio %.4f (samc %.4f, ceiling %.4f) %s\n",
			"rans", ransB.Ratio, samcB.Ratio, samcB.Ratio*1.05, status)
		status = "ok"
		if ransB.MBPerSec < samcB.MBPerSec*4 {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("rans decode %.2f MB/s below 4x samc %.2f MB/s", ransB.MBPerSec, samcB.MBPerSec))
		}
		fmt.Printf("%-8s decode %.2f MB/s (samc %.2f MB/s, floor %.2f) %s\n",
			"rans", ransB.MBPerSec, samcB.MBPerSec, samcB.MBPerSec*4, status)
	}
	if miss, ok := fresh.Benchmarks["romserver/RomserverMiss"]; ok {
		status := "ok"
		if miss.AllocsPerOp > 1 {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("romserver miss path: %.0f allocs/op, budget is 1", miss.AllocsPerOp))
		}
		fmt.Printf("%-8s miss path %.0f allocs/op (budget 1) %s\n", "serving", miss.AllocsPerOp, status)
	} else {
		failures = append(failures, "romserver/RomserverMiss missing from fresh run")
	}
	// Cold range gate: a page-in may allocate one cached copy per decoded
	// block plus a fixed per-read overhead — nothing per block for the
	// decode deadline.
	if cold, ok := fresh.Benchmarks["romserver/RomserverColdRange"]; ok {
		const coldRangeOverhead = 8
		budget := cold.DecodesPerOp + coldRangeOverhead
		status := "ok"
		if cold.DecodesPerOp <= 0 || cold.AllocsPerOp > budget {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("romserver cold range: %.0f allocs/op at %.0f decodes/op, budget is decodes + %d",
					cold.AllocsPerOp, cold.DecodesPerOp, coldRangeOverhead))
		}
		fmt.Printf("%-8s cold range %.0f allocs/op at %.0f decodes/op (budget %.0f) %s\n",
			"serving", cold.AllocsPerOp, cold.DecodesPerOp, budget, status)
	} else {
		failures = append(failures, "romserver/RomserverColdRange missing from fresh run")
	}
	// Cold text gate: the pipelined whole-image read takes at most one
	// pool ticket per window, and allocates one cached copy per decoded
	// block plus a fixed overhead per window.
	if text, ok := fresh.Benchmarks["romserver/RomserverTextCold"]; ok {
		const textWindowOverhead = 8
		budget := text.DecodesPerOp + textWindowOverhead*text.WindowsPerOp
		status := "ok"
		if text.DecodesPerOp <= 0 || text.WindowsPerOp <= 0 || text.DispatchesPerOp > text.WindowsPerOp || text.AllocsPerOp > budget {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("romserver cold text: %.1f dispatches/op for %.0f windows, %.0f allocs/op at %.0f decodes/op; budget is one dispatch per window and decodes + %d per window",
					text.DispatchesPerOp, text.WindowsPerOp, text.AllocsPerOp, text.DecodesPerOp, textWindowOverhead))
		}
		fmt.Printf("%-8s cold text %.1f dispatches/op (%.0f windows), %.0f allocs/op at %.0f decodes/op (budget %.0f) %s\n",
			"serving", text.DispatchesPerOp, text.WindowsPerOp, text.AllocsPerOp, text.DecodesPerOp, budget, status)
	} else {
		failures = append(failures, "romserver/RomserverTextCold missing from fresh run")
	}
	// Zero-copy read-path gates: the warm lease-backed paths must stay
	// allocation-free, and a sub-block miss must decode strictly less
	// than its 4 KiB block (the partial-decode saving, machine-independent
	// like the alloc budget).
	for _, name := range []string{"romserver/RomserverCachedReadAt", "romserver/RomserverWarmRange"} {
		warm, ok := fresh.Benchmarks[name]
		if !ok {
			failures = append(failures, name+" missing from fresh run")
			continue
		}
		status := "ok"
		if warm.AllocsPerOp > 0 || warm.BytesPerOp > 0 {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f allocs/op %.0f B/op, budget is zero-copy (0/0)",
					name, warm.AllocsPerOp, warm.BytesPerOp))
		}
		fmt.Printf("%-8s %s %.0f allocs/op %.0f B/op (budget 0/0) %s\n",
			"serving", strings.TrimPrefix(name, "romserver/Romserver"), warm.AllocsPerOp, warm.BytesPerOp, status)
	}
	if sub, ok := fresh.Benchmarks["romserver/RomserverSubblockMiss"]; ok {
		const subblockBenchBlockSize = 4096 // keep in sync with BenchmarkRomserverSubblockMiss
		status := "ok"
		if sub.DecodedBPerOp <= 0 || sub.DecodedBPerOp >= subblockBenchBlockSize {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("romserver sub-block miss: %.0f decoded B/op, want in (0, %d)",
					sub.DecodedBPerOp, subblockBenchBlockSize))
		}
		fmt.Printf("%-8s sub-block miss %.0f decoded B/op (block size %d) %s\n",
			"serving", sub.DecodedBPerOp, subblockBenchBlockSize, status)
	} else {
		failures = append(failures, "romserver/RomserverSubblockMiss missing from fresh run")
	}
	if len(failures) > 0 {
		return fmt.Errorf("decode fast-path regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	var (
		out       = flag.String("out", "BENCH_decode.json", "output path (measure mode)")
		baseline  = flag.String("baseline", "BENCH_decode.json", "committed baseline (check mode)")
		doCheck   = flag.Bool("check", false, "compare a fresh run against the baseline instead of rewriting it")
		count     = flag.Int("count", 5, "benchmark repetitions per package (median kept)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed relative speedup regression in check mode")
	)
	flag.Parse()

	fresh, err := measure(*count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdecode:", err)
		os.Exit(1)
	}
	if *doCheck {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdecode:", err)
			os.Exit(1)
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchdecode: parsing %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		if err := check(fresh, &base, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchdecode:", err)
			os.Exit(1)
		}
		fmt.Println("decode fast path within tolerance of baseline")
		return
	}
	data, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdecode:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchdecode:", err)
		os.Exit(1)
	}
	for codec, s := range fresh.Speedups {
		fmt.Printf("%-8s %.1f ns fast vs %.1f ns reference (%.2fx)\n",
			codec, s.FastNs, s.ReferenceNs, s.Speedup)
	}
	fmt.Println("wrote", *out)
}
