package memsys_test

import (
	"testing"

	"codecomp/internal/memsys"
	"codecomp/internal/policy"
	"codecomp/internal/synth"
	"codecomp/internal/traceprof"
)

func mustEval(t *testing.T, accesses []int, blocks int, pf policy.Prefetcher, cfg memsys.PolicyConfig) memsys.PolicyStats {
	t.Helper()
	st, err := memsys.EvaluatePolicy(memsys.DemandTrace(accesses), blocks, pf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEvaluatePolicyMechanics(t *testing.T) {
	// No prefetcher, capacity 2, trace 0 1 0 2 0: 0 survives (always
	// re-touched before eviction), 1 and 2 are cold misses.
	st := mustEval(t, []int{0, 1, 0, 2, 0}, 4, nil, memsys.PolicyConfig{CacheBlocks: 2})
	if st.Requests != 5 || st.DemandHits != 2 || st.DemandMisses != 3 || st.Decompressions != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evictions != 1 { // block 1 evicted when 2 arrives
		t.Fatalf("evictions = %d", st.Evictions)
	}

	// Sequential depth-1 prefetch fires on demand misses only, so the
	// scan alternates miss (0, 2) and prefetched hit (1, 3).
	st = mustEval(t, []int{0, 1, 2, 3}, 8, policy.NewSequential(1, 8), memsys.PolicyConfig{CacheBlocks: 8})
	if st.DemandMisses != 2 || st.DemandHits != 2 {
		t.Fatalf("sequential stats = %+v", st)
	}
	if st.PrefetchIssued != 2 || st.PrefetchUsed != 2 || st.PrefetchWasted != 0 {
		t.Fatalf("prefetch accounting = %+v", st)
	}
	if st.Accuracy() != 1 {
		t.Fatalf("accuracy = %v", st.Accuracy())
	}

	// A prefetch past the trace's use is wasted.
	st = mustEval(t, []int{0}, 8, policy.NewSequential(2, 8), memsys.PolicyConfig{CacheBlocks: 8})
	if st.PrefetchIssued != 2 || st.PrefetchUsed != 0 || st.PrefetchWasted != 2 {
		t.Fatalf("waste accounting = %+v", st)
	}

	// Pinned blocks always hit and are never evicted.
	st = mustEval(t, []int{7, 0, 1, 2, 3, 7}, 8, nil, memsys.PolicyConfig{CacheBlocks: 3, Pinned: []int{7}})
	if st.DemandHits != 2 { // both accesses of 7
		t.Fatalf("pinned stats = %+v", st)
	}

	// Errors.
	if _, err := memsys.EvaluatePolicy(memsys.DemandTrace([]int{0}), 0, nil, memsys.PolicyConfig{CacheBlocks: 2}); err == nil {
		t.Fatal("numBlocks=0 accepted")
	}
	if _, err := memsys.EvaluatePolicy(memsys.DemandTrace([]int{9}), 4, nil, memsys.PolicyConfig{CacheBlocks: 2}); err == nil {
		t.Fatal("out-of-range access accepted")
	}
	if _, err := memsys.EvaluatePolicy(nil, 4, nil, memsys.PolicyConfig{CacheBlocks: 2, Pinned: []int{9}}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

// TestTrainedPoliciesBeatSequentialOnGCC is the tracelab acceptance
// criterion: on the looping gcc trace with a cold cache sized below the
// working set, at least one trained policy (markov or hotset) beats the
// sequential baseline on demand hit ratio.
func TestTrainedPoliciesBeatSequentialOnGCC(t *testing.T) {
	const blockSize = 32
	gcc, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	prog := synth.GenerateMIPS(gcc)
	trace := prog.Trace(1, 200000)

	// Collapse to block-change granularity, the request stream a refill
	// engine behind a one-line buffer issues.
	reqs := make([]int, 0, len(trace)/4)
	last := -1
	for _, a := range trace {
		b := int(a-synth.TextBase) / blockSize
		if b != last {
			reqs = append(reqs, b)
			last = b
		}
	}
	blocks := (len(prog.Text()) + blockSize - 1) / blockSize

	prof := traceprof.BuildProfile(reqs, blocks)
	ws := prof.UniqueBlocks()
	cache := ws / 3 // well below the working set: LRU alone must thrash

	// The looping trace: the same phase rotation replayed 3 times.
	looped := make([]int, 0, 3*len(reqs))
	for l := 0; l < 3; l++ {
		looped = append(looped, reqs...)
	}

	seq, err := policy.New("sequential", policy.Config{Blocks: blocks, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	markov, err := policy.New("markov", policy.Config{Blocks: blocks, Depth: 4, TopK: 4, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	hotset, err := policy.New("hotset", policy.Config{Blocks: blocks, Depth: 4, PinCount: cache / 2, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}

	cfg := memsys.PolicyConfig{CacheBlocks: cache}
	seqSt := mustEval(t, looped, blocks, seq, cfg)
	markovSt := mustEval(t, looped, blocks, markov, cfg)
	hotsetSt := mustEval(t, looped, blocks, hotset,
		memsys.PolicyConfig{CacheBlocks: cache, Pinned: hotset.(policy.Pinner).Pinned()})

	t.Logf("working set %d blocks, cache %d blocks, %d requests/loop", ws, cache, len(reqs))
	for _, r := range []struct {
		name string
		st   memsys.PolicyStats
	}{{"sequential", seqSt}, {"markov", markovSt}, {"hotset", hotsetSt}} {
		t.Logf("%-10s hit %.4f  accuracy %.4f  wasted %d  decompressions %d",
			r.name, r.st.HitRatio(), r.st.Accuracy(), r.st.PrefetchWasted, r.st.Decompressions)
	}

	base := seqSt.HitRatio()
	if markovSt.HitRatio() <= base && hotsetSt.HitRatio() <= base {
		t.Fatalf("no trained policy beat sequential: seq %.4f, markov %.4f, hotset %.4f",
			base, markovSt.HitRatio(), hotsetSt.HitRatio())
	}
	// The trained table also prefetches far more accurately, so the same
	// trace costs markedly fewer decompressions.
	if markovSt.Accuracy() <= seqSt.Accuracy() || markovSt.Decompressions >= seqSt.Decompressions {
		t.Fatalf("markov not cheaper than sequential: accuracy %.4f vs %.4f, decompressions %d vs %d",
			markovSt.Accuracy(), seqSt.Accuracy(), markovSt.Decompressions, seqSt.Decompressions)
	}
}
