// The sub-block drill: byte-window reads with byte-exact verification.

package drill

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"codecomp/internal/cluster/client"
	"codecomp/internal/faultinj"
	"codecomp/internal/romserver"
)

// Subblock boots an in-process node, uploads the workload and storms
// random byte windows through GET /images/{name}/bytes, in two phases:
//
//  1. Clean: every response must match the text exactly, and the
//     server's partial-decode counters must move — mid-block tails are
//     decoded partially instead of in full, for less than a block of
//     codec output each.
//  2. Faulted: with bit flips and transient errors injected behind the
//     codec, a read may fail (5xx after retries) but every 200 must
//     still be byte-exact — the partial path must never serve an
//     unverified prefix of a faulted image.
func Subblock(cfg Config, w *Workload) (int, error) {
	node, err := bootNode("subblock-0", romserver.Options{CacheBlocks: 64, LoadAttempts: 3})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	cc := client.New(node.srv.URL, nil)
	if err := upload(cc, w.Name, w.Image); err != nil {
		return 0, err
	}

	// Pre-generate the windows so the workers share no RNG: a mix of
	// short intra-block reads, block-straddling windows and long spans.
	prog := w.program()
	rng := rand.New(rand.NewSource(cfg.Seed))
	windows := make([]window, cfg.SubblockReads)
	for i := range windows {
		off := rng.Intn(len(prog.text))
		windows[i] = window{off, min(rng.Intn(4*prog.blockSize)+1, len(prog.text)-off)}
	}
	storm := func(label string) replayResult {
		var decoded atomic.Int64
		res := replay{prog: prog, workers: cfg.Concurrency, label: "subblock " + label,
			next: stream(len(windows), func(i int) window { return windows[i] }),
			read: func(win window) ([]byte, error) {
				body, _, dec, err := cc.ReadBytes(w.Name, win.off, win.n)
				decoded.Add(int64(dec))
				return body, err
			},
		}.run()
		fmt.Printf("loadgen: subblock: %s: %d windows ok, %d failed, %d mismatched, %d B decoded in %v\n",
			label, res.ok, res.failed, res.corrupt, decoded.Load(), res.elapsed.Round(time.Millisecond))
		return res
	}

	c := checks{drill: "subblock"}
	clean := storm("clean")
	c.check(clean.corrupt == 0 && clean.failed == 0 && clean.ok > 0, "clean phase served every window exactly")
	st, err := scrape(cc, famSubblockReads, famPartialDecodes, famPartialDecodedSize)
	if err != nil {
		return c.failed, err
	}
	partials, partialBytes := st[famPartialDecodes], st[famPartialDecodedSize]
	fmt.Printf("loadgen: subblock: server: %d sub-block reads, %d partial decodes, %d B partially decoded\n",
		st[famSubblockReads], partials, partialBytes)
	c.check(partials > 0, "mid-block tails were partially decoded")
	c.check(partialBytes < partials*int64(prog.blockSize),
		"partial decodes averaged less than a full block of output")

	if err := node.Server().SetFaults(w.Name, &faultinj.Options{
		Seed:          cfg.Seed,
		BitFlipRate:   0.02,
		TransientRate: 0.01,
	}); err != nil {
		return c.failed, err
	}
	faulted := storm("faulted")
	if err := node.Server().SetFaults(w.Name, nil); err != nil {
		return c.failed, err
	}
	c.check(faulted.corrupt == 0, "every faulted read answered 200 served exact bytes")
	fmt.Printf("loadgen: subblock: faulted phase refused %d reads cleanly (detection, not corruption)\n", faulted.failed)
	return c.failed, nil
}
