// The tiering drill: heat-tiered codec selection converges and never
// corrupts a served byte.

package drill

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/memsys"
	"codecomp/internal/romserver"
	"codecomp/internal/tiering"
)

// tieringBlockSize is the tier container's block size: tiers share one
// model per tier, so blocks larger than loadgen's default pay for it.
const tieringBlockSize = 128

// tieringSkewedTrace builds a block-access trace where the first hot
// blocks carry ~90% of all accesses.
func tieringSkewedTrace(blocks, hot, accesses int) []int {
	trace := make([]int, 0, accesses)
	for i := 0; i < accesses; i++ {
		if i%10 != 0 {
			// i%hot (not a fixed stride) so every hot block gets mass
			// regardless of gcd(stride, hot).
			trace = append(trace, i%hot)
		} else {
			trace = append(trace, hot+i%(blocks-hot))
		}
	}
	return trace
}

// Tiering is the end-to-end proof of heat-tiered codec selection. It
// boots an in-process romserver with the recompressor in synchronous
// mode, registers cfg.Profile as a mixed-codec tiered image with every
// block parked in the densest tier, and trains it on a hot-skewed trace
// of cfg.Trace/10 accesses while cfg.Concurrency readers verify every
// served block — including while recompression passes migrate blocks
// under them. It fails unless the trained hot set converges into the
// fast tiers (raw/huffman), the cold set stays dense, no read fails or
// mismatches, no migration fails to verify, and the offline memsys
// evaluator shows the converged layout Pareto-dominating single-codec
// SAMC: compression ratio at least as good and lower mean decode
// latency on the same trace. The Pareto table it prints is the source
// of the numbers in EXPERIMENTS.md.
//
// The drill calls the bare romserver.Server, not a cluster.Node, and
// crosses no HTTP. The node's GET/PUT /images/{name}/tiering routes and
// the store write-through of migrated tiers are covered instead by
// TestTieringEndpoints and TestTieredDataDirPersistence in cmd/codecompd.
func Tiering(cfg Config) (int, error) {
	c := checks{drill: "tiering"}
	prog := program{codecomp.GenerateMIPS(codecomp.MustProfile(cfg.Profile)).Text(), tieringBlockSize}
	tiers := []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS}
	img, err := codecomp.CompressTiered(prog.text, codecomp.TierSpec{
		BlockSize:   tieringBlockSize,
		Tiers:       tiers,
		DefaultTier: 2, // everything starts dense; heat promotes
	})
	if err != nil {
		return 0, err
	}
	blocks := img.NumBlocks()
	fmt.Printf("loadgen: tiering: %s: %d B text, %d blocks of %d B, all starting in %s (ratio %.4f)\n",
		cfg.Profile, len(prog.text), blocks, tieringBlockSize, tiers[2], img.Ratio())

	// Small batches: each synchronous pass migrates at most BatchBlocks
	// blocks, and the drill interleaves verified reads between batches,
	// so readers provably observe the image mid-migration (a full-image
	// pass on a small image holds the container's write lock nearly
	// continuously and the readers would only ever see the end states).
	srv := romserver.New(romserver.Options{
		CacheBlocks: 64,
		Tiering:     &romserver.TieringOptions{Interval: -1, BatchBlocks: 16},
	})
	defer srv.Close()
	if _, err := srv.AddImage("prog", img.Marshal()); err != nil {
		return 0, err
	}

	// Concurrent readers sweep the image and verify every served block
	// for the whole run — the bytes must stay exact while the
	// recompressor swaps tiers under them.
	var stop atomic.Bool
	var done atomic.Int64
	k := 0
	readers := replay{prog: prog, workers: cfg.Concurrency, label: "tiering",
		next: streamWhile(func() bool { return !stop.Load() }, func() window { k++; return prog.block(k % blocks) }),
		read: func(win window) ([]byte, error) {
			data, _, err := srv.BlockContext(context.Background(), "prog", prog.first(win))
			return data, err
		},
		onDone: func(n int64) { done.Store(n) },
	}
	readsDone := make(chan replayResult, 1)
	go func() { readsDone <- readers.run() }()
	finish := func() replayResult {
		stop.Store(true)
		return <-readsDone
	}
	// readersAhead waits until the readers have finished n more reads.
	readersAhead := func(n int64) bool {
		target := done.Load() + n
		return waitFor(30*time.Second, func() bool { return done.Load() >= target })
	}

	// Don't start migrating until the readers are reading, so the storm
	// genuinely overlaps the migration window.
	overlapped := readersAhead(int64(cfg.Concurrency))
	readsBefore := done.Load()

	// Three training rounds — hot-skewed, flat (demotes everything),
	// hot-skewed again — so blocks migrate in both directions while the
	// readers storm; each round drains its recompression plan fully.
	hot := max(blocks/10, 1)
	trace := tieringSkewedTrace(blocks, hot, cfg.Trace/10)
	flat := make([]int, blocks)
	for b := range flat {
		flat[b] = b
	}
	migrated, verifyFailures := 0, 0
	var last romserver.TieringPassStats
	for _, tr := range [][]int{trace, flat, trace} {
		if _, err := srv.TrainFrom("prog", tr); err != nil {
			finish()
			return c.failed, err
		}
		for i := 0; i <= blocks; i++ {
			st, err := srv.Recompress("prog")
			if err != nil {
				finish()
				return c.failed, err
			}
			migrated += st.Migrated
			verifyFailures += st.VerifyFailures
			last = st
			if st.Planned == 0 {
				break
			}
			// The tier map is mid-migration here; insist the readers
			// verify bytes against it before the next batch lands.
			overlapped = readersAhead(32) && overlapped
		}
	}
	readsDuring := done.Load() - readsBefore
	reads := finish()

	ti, err := srv.Tiering("prog")
	if err != nil {
		return c.failed, err
	}
	fmt.Printf("loadgen: tiering: %d blocks migrated under %d verified live reads; tier map now ", migrated, readsDuring)
	for i, tc := range ti.Tiers {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s=%d", tc.Format, tc.Blocks)
	}
	fmt.Printf(" (ratio %.4f)\n", ti.Ratio)

	// The robustness contract: exact bytes throughout, no failed
	// migrations, and the plan fully drained.
	c.check(reads.corrupt == 0, fmt.Sprintf("%d byte-mismatched reads during live migration", reads.corrupt))
	c.check(reads.failed == 0, fmt.Sprintf("%d read errors during live migration", reads.failed))
	c.check(verifyFailures == 0, fmt.Sprintf("%d migration verify failures", verifyFailures))
	c.check(last.Planned == 0, fmt.Sprintf("recompression backlog drained: %+v", last))
	c.check(migrated > 0, "blocks migrated from a trained hot-skewed profile")
	c.check(readsDuring > 0 && overlapped, "verified reads overlapped every migration batch")

	// Convergence: >=90% of the hot set in the fast tiers, >=90% of the
	// cold set still dense.
	hotFast, coldDense := 0, 0
	for b := 0; b < blocks; b++ {
		if b < hot {
			if ti.Assignments[b] < 2 {
				hotFast++
			}
		} else if ti.Assignments[b] == 2 {
			coldDense++
		}
	}
	c.check(hotFast*10 >= hot*9, fmt.Sprintf("hot set %d/%d in fast tiers", hotFast, hot))
	c.check(coldDense*10 >= (blocks-hot)*9, fmt.Sprintf("cold set %d/%d dense", coldDense, blocks-hot))

	// Offline Pareto: score the converged tier map against every
	// single-codec layout on the same trace through the memsys
	// replay — ratio from real compression, latency from the cost model.
	simCache := cfg.SimCache
	if simCache <= 0 {
		simCache = max(hot/2, 1)
	}
	model := codecomp.DefaultTierCostModel
	costsFor := func(nsPerByte func(b int) float64) []float64 {
		costs := make([]float64, blocks)
		for b := range costs {
			costs[b] = float64(prog.block(b).n) * nsPerByte(b)
		}
		return costs
	}
	type candidate struct {
		name  string
		ratio float64
		costs []float64
	}
	var cands []candidate
	// Each single-codec image is priced from the kernel it decodes
	// through: the standalone rANS image is 4-state, not the tier's
	// single state.
	for _, alg := range []struct {
		flag, format string
		nsPerByte    float64
	}{
		{"", codecomp.TierRaw, model[codecomp.TierRaw]},
		{"huff", codecomp.TierHuffman, model[codecomp.TierHuffman]},
		{"rans", codecomp.TierRANS, tiering.RANS4Cost},
		{"samc", codecomp.TierSAMC, model[codecomp.TierSAMC]},
	} {
		ratio := 1.0
		if alg.flag != "" {
			image, _, err := compress(prog.text, alg.flag, tieringBlockSize)
			if err != nil {
				return c.failed, err
			}
			ratio = float64(len(image)) / float64(len(prog.text))
		}
		cands = append(cands, candidate{alg.format, ratio, costsFor(func(int) float64 { return alg.nsPerByte })})
	}
	cands = append(cands, candidate{"tiered", ti.Ratio, costsFor(func(b int) float64 { return model[tiers[ti.Assignments[b]]] })})

	fmt.Printf("loadgen: tiering: offline Pareto (%d accesses, %d-block cache):\n", len(trace), simCache)
	fmt.Printf("  %-10s %8s %16s %16s\n", "config", "ratio", "mean ns/access", "mean ns/miss")
	var samcStat, tieredStat memsys.TieringStats
	var samcRatio float64
	for _, cand := range cands {
		st, err := memsys.EvaluateTiering(trace, blocks, memsys.TieringConfig{
			CacheBlocks: simCache, BlockCostNs: cand.costs,
		})
		if err != nil {
			return c.failed, err
		}
		fmt.Printf("  %-10s %8.4f %16.1f %16.1f\n", cand.name, cand.ratio, st.MeanNsPerAccess, st.MeanNsPerMiss)
		switch cand.name {
		case codecomp.TierSAMC:
			samcStat, samcRatio = st, cand.ratio
		case "tiered":
			tieredStat = st
		}
	}
	c.check(ti.Ratio <= samcRatio, fmt.Sprintf("tiered ratio %.4f no worse than single-codec samc %.4f", ti.Ratio, samcRatio))
	c.check(tieredStat.MeanNsPerAccess < samcStat.MeanNsPerAccess,
		fmt.Sprintf("tiered mean %.1f ns/access beats samc %.1f", tieredStat.MeanNsPerAccess, samcStat.MeanNsPerAccess))

	// The final state must still decode byte-exact end to end.
	var full bytes.Buffer
	if _, err := srv.WriteText("prog", &full); err != nil {
		return c.failed, err
	}
	c.check(bytes.Equal(full.Bytes(), prog.text), "full text exact after convergence")
	return c.failed, nil
}
