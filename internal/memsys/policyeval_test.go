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

	// Errors.
	if _, err := memsys.EvaluatePolicy(memsys.DemandTrace([]int{0}), 0, nil, memsys.PolicyConfig{CacheBlocks: 2}); err == nil {
		t.Fatal("numBlocks=0 accepted")
	}
	if _, err := memsys.EvaluatePolicy(memsys.DemandTrace([]int{9}), 4, nil, memsys.PolicyConfig{CacheBlocks: 2}); err == nil {
		t.Fatal("out-of-range access accepted")
	}
}

// gccLoop is the looping gcc trace: seed 1's 200,000 instruction
// fetches collapsed to block-change granularity (the request stream a
// refill engine behind a one-line buffer issues), and that phase
// rotation replayed 3 times, over an image of the given block count.
func gccLoop(t *testing.T) (reqs, looped []int, blocks int) {
	t.Helper()
	const blockSize = 32
	gcc, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	prog := synth.GenerateMIPS(gcc)
	trace := prog.Trace(1, 200000)
	reqs = make([]int, 0, len(trace)/4)
	last := -1
	for _, a := range trace {
		b := int(a-synth.TextBase) / blockSize
		if b != last {
			reqs = append(reqs, b)
			last = b
		}
	}
	looped = make([]int, 0, 3*len(reqs))
	for l := 0; l < 3; l++ {
		looped = append(looped, reqs...)
	}
	return reqs, looped, (len(prog.Text()) + blockSize - 1) / blockSize
}

// TestTrainedPoliciesBeatSequentialOnGCC is the tracelab acceptance
// criterion: on the looping gcc trace with a cold cache sized below the
// working set, the trained markov policy beats the sequential baseline
// on demand hit ratio.
func TestTrainedPoliciesBeatSequentialOnGCC(t *testing.T) {
	reqs, looped, blocks := gccLoop(t)
	prof := traceprof.BuildProfile(reqs, blocks)
	ws := prof.UniqueBlocks()
	cache := ws / 3 // well below the working set: LRU alone must thrash

	seq, err := policy.New("sequential", policy.Config{Blocks: blocks, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	markov, err := policy.New("markov", policy.Config{Blocks: blocks, Depth: 4, TopK: 4, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}

	cfg := memsys.PolicyConfig{CacheBlocks: cache}
	seqSt := mustEval(t, looped, blocks, seq, cfg)
	markovSt := mustEval(t, looped, blocks, markov, cfg)

	t.Logf("working set %d blocks, cache %d blocks, %d requests/loop", ws, cache, len(reqs))
	for _, r := range []struct {
		name string
		st   memsys.PolicyStats
	}{{"sequential", seqSt}, {"markov", markovSt}} {
		t.Logf("%-10s hit %.4f  accuracy %.4f  wasted %d  decompressions %d",
			r.name, r.st.HitRatio(), r.st.Accuracy(), r.st.PrefetchWasted, r.st.Decompressions)
	}

	if markovSt.HitRatio() <= seqSt.HitRatio() {
		t.Fatalf("markov did not beat sequential: seq %.4f, markov %.4f", seqSt.HitRatio(), markovSt.HitRatio())
	}
	// The trained table also prefetches far more accurately, so the same
	// trace costs markedly fewer decompressions.
	if markovSt.Accuracy() <= seqSt.Accuracy() || markovSt.Decompressions >= seqSt.Decompressions {
		t.Fatalf("markov not cheaper than sequential: accuracy %.4f vs %.4f, decompressions %d vs %d",
			markovSt.Accuracy(), seqSt.Accuracy(), markovSt.Decompressions, seqSt.Decompressions)
	}
}
