// Command loadgen replays memsys-style synthetic instruction-fetch traces
// against a running codecompd, the way internal/memsys replays them against
// the simulated refill engine: it generates a synthetic SPEC95 program,
// compresses and uploads it, walks the program's control-flow trace
// collapsed to block-change granularity (a refill engine behind a one-line
// buffer only fetches when the block changes), and issues the resulting
// block reads over HTTP from a pool of concurrent clients, verifying every
// served block against the original program.
//
// At the end it reports client-side throughput, then the server's cache
// hit ratio, prefetch activity, decompression counts and a latency table
// (p50/p90/p99/mean for the HTTP block route and each server-side load
// phase), all computed by scraping the /metrics Prometheus exposition
// before and after the run and differencing the counters and histograms —
// the numbers cover exactly this run, not the daemon's lifetime.
//
// With -policy it becomes a one-command A/B harness: the same trace is
// replayed twice against a cold cache — once under the sequential baseline,
// once under the selected policy (trained on the trace via the server's
// /train endpoint) — and the final line compares demand hit ratio,
// prefetch accuracy and prefetch waste. With -offline no server is needed:
// the trace is scored through the memsys policy evaluator instead. The
// generated trace can be saved with -tracefile for later replay through
// traceprof tooling or a /train upload.
//
// With -chaos it becomes an end-to-end fault drill against the daemon
// (which must run with -enable-fault-injection); -range, -qps, -cluster,
// -subblock, -overload and -tiering select the other replays and drills,
// the last four self-contained in process. The replays and drills live in
// internal/drill, whose package doc lists what each one checks; this
// command only parses flags and dispatches. A drill exits 1 on any
// invariant violation.
//
// The drills' fault and cluster shapes are fixed, not flags. -chaos
// injects bit flips into 2% and transient errors into 1% of
// decompressions, with injector seed 1 (2 for its range phase), and
// makes the block in the middle of the trace panic. -cluster boots
// three nodes with every image on two of them, kills and restarts one,
// and joins a fourth mid-replay.
//
// Example (after `codecompd -addr :8077 -cache-blocks 256`):
//
//	loadgen -addr http://localhost:8077 -profile gcc -alg samc -loops 4
//	loadgen -addr http://localhost:8077 -profile gcc -loops 3 -policy markov
//	loadgen -offline -profile gcc -loops 3
//	loadgen -addr http://localhost:8077 -profile gcc -chaos
package main

import (
	"flag"
	"fmt"
	"os"

	"codecomp/internal/cluster/client"
	"codecomp/internal/drill"
	"codecomp/internal/overload"
)

func main() {
	cfg := drill.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "codecompd base URL")
	flag.StringVar(&cfg.Profile, "profile", cfg.Profile, "synthetic SPEC95 profile to generate")
	flag.StringVar(&cfg.Alg, "alg", cfg.Alg, "compression algorithm: samc, sadc, huff, rans")
	flag.StringVar(&cfg.Name, "name", cfg.Name, "image name on the server (default <profile>-<alg>)")
	flag.IntVar(&cfg.Trace, "trace", cfg.Trace, "instruction fetches per trace loop")
	flag.IntVar(&cfg.Loops, "loops", cfg.Loops, "times the trace is replayed (loop >1 exercises the warm cache)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "trace RNG seed")
	flag.IntVar(&cfg.Concurrency, "c", cfg.Concurrency, "concurrent client connections")
	flag.IntVar(&cfg.BlockSize, "block", cfg.BlockSize, "cache block size used at compression time")
	keep := flag.Bool("keep", false, "leave the image registered after the run")
	flag.StringVar(&cfg.Policy, "policy", cfg.Policy, "A/B this policy against the sequential baseline: markov or sequential")
	flag.IntVar(&cfg.TopK, "k", cfg.TopK, "markov successors warmed per miss (0 = default)")
	flag.IntVar(&cfg.PrefetchDepth, "pdepth", cfg.PrefetchDepth, "policy prefetch depth (0 = default)")
	flag.StringVar(&cfg.TraceFile, "tracefile", cfg.TraceFile, "also write the generated block trace here in codecomp-trace format")
	offline := flag.Bool("offline", false, "skip the server: score sequential and markov through the memsys policy evaluator")
	flag.IntVar(&cfg.SimCache, "sim-cache", cfg.SimCache, "offline cache capacity in blocks (0 = working set / 3)")
	flag.IntVar(&cfg.RangeSpan, "range", cfg.RangeSpan, "replay through GET /blocks?range=i-j with spans of this many blocks (0 = per-block reads); the report compares pool dispatches against per-block cost")
	subblock := flag.Bool("subblock", false, "sub-block drill: random byte-window reads via GET /bytes with byte-exact verification, then the same storm under server-side fault injection where every 200 must still be exact")
	flag.IntVar(&cfg.SubblockReads, "subblock-reads", cfg.SubblockReads, "sub-block drill: byte-window reads per phase")
	chaos := flag.Bool("chaos", false, "fault drill: inject faults server-side, verify every served byte, assert detection and recovery")
	clusterMode := flag.Bool("cluster", false, "cluster chaos drill: boot an in-process multi-node cluster behind a router, replay through it while killing and restarting a node, assert byte-exactness, hit ratio and disk recovery")
	overloadMode := flag.Bool("overload", false, "overload drill: boot an in-process node with admission control, measure its capacity, storm it open-loop at 4x and assert byte-exactness, bounded p99, goodput, retry containment, brownout escalation and recovery")
	tieringMode := flag.Bool("tiering", false, "tiering drill: drive an in-process romserver.Server (no node, no HTTP) holding a mixed-codec tiered image, replay a hot-skewed trace under concurrent verified reads while recompression migrates blocks, assert hot/cold tier convergence, byte-exactness and Pareto dominance over single-codec SAMC")
	flag.Float64Var(&cfg.QPS, "qps", cfg.QPS, "open-loop offered load in req/s against -addr; goodput vs offered load is reported (0 = closed-loop modes)")
	flag.DurationVar(&cfg.Deadline, "deadline", cfg.Deadline, "open-loop/overload: per-request deadline, propagated to the server via "+overload.DeadlineHeader)
	flag.DurationVar(&cfg.Duration, "duration", cfg.Duration, "open-loop/overload: how long the load runs")
	flag.Parse()

	switch {
	case *overloadMode:
		verdict("overload", "stormed at 4x capacity, rejected early, goodput held, retries contained, brownout escalated and recovered")(drill.Overload(cfg))
		return
	case *tieringMode:
		verdict("tiering", "hot set converged to fast tiers, cold set stayed dense, every byte exact during live migration, tiered layout Pareto-dominates single-codec samc")(drill.Tiering(cfg))
		return
	}

	w, err := drill.NewWorkload(cfg)
	fatal(err)
	switch {
	case *offline:
		fatal(drill.Offline(cfg, w))
		return
	case *clusterMode:
		verdict("cluster", "node killed and restarted mid-replay, zero corrupt bytes, hit ratio held, disk recovery worked")(drill.Cluster(cfg, w))
		return
	case *subblock:
		verdict("subblock", "byte windows exact clean and under faults; partial decodes saved tail-block work")(drill.Subblock(cfg, w))
		return
	}

	cc := client.New(cfg.Addr, nil)
	if !*keep {
		defer cc.Delete(w.Name) //nolint:errcheck — best-effort cleanup
	}
	switch {
	case *chaos:
		verdict("chaos", "faults injected, detected, never served; image recovered")(drill.Chaos(cfg, cc, w))
	case cfg.RangeSpan > 0:
		verdict("range", "")(drill.Range(cfg, cc, w))
	case cfg.QPS > 0:
		verdict("", "")(drill.OpenLoop(cfg, w))
	case cfg.Policy == "":
		verdict("", "")(drill.Replay(cfg, cc, w))
	default:
		verdict("", "")(drill.AB(cfg, cc, w))
	}
}

// verdict reports a drill's outcome and exits 1 on an error or any
// invariant violation. Unnamed modes fail without a summary line.
func verdict(name, pass string) func(violations int, err error) {
	return func(violations int, err error) {
		fatal(err)
		if violations > 0 {
			if name != "" {
				fmt.Fprintf(os.Stderr, "loadgen: %s: FAIL (%d invariant violations)\n", name, violations)
			}
			os.Exit(1)
		}
		if pass != "" {
			fmt.Printf("loadgen: %s: PASS — %s\n", name, pass)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}
