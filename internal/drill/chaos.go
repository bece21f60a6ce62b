// The chaos fault drill and the batched range replay, both against an
// external daemon.

package drill

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"codecomp/internal/cluster/client"
	"codecomp/internal/faultinj"
)

// The chaos drill's fault injector: per-decompression bit-flip and
// transient-error rates, and the seed that keys its draws (the range
// phase reseeds with chaosSeed+1).
const (
	chaosBitflip   = 0.02
	chaosTransient = 0.01
	chaosSeed      = 1
)

// Chaos is the end-to-end fault drill. It uploads the workload, installs
// a deterministic fault injector on it (bit flips, transient errors, one
// permanently panicking block from the middle of the trace), replays the
// trace while verifying every served block, watches the image's health
// degrade, then lifts the faults and waits for the
// background re-verifier to walk it back to healthy. The daemon must
// allow fault injection. The invariants, in order of importance:
//
//  1. Zero corrupt bytes served: every 200 response matches the original
//     text exactly, bit flips notwithstanding.
//  2. The daemon survives: /healthz answers after the storm.
//  3. The faults were detected, not absorbed: romserver_corrupt_blocks_total
//     and romserver_codec_panics_total move in /metrics.
//  4. Degradation is observable: a non-healthy state shows up in the
//     image's metadata while the faults are active.
//  5. The image recovers to healthy after the faults are lifted.
//  6. Batched range reads stay byte-exact under faults and amortize pool
//     dispatches below one per block.
func Chaos(cfg Config, cc *client.Client, w *Workload) (int, error) {
	if err := upload(cc, w.Name, w.Image); err != nil {
		return 0, err
	}
	defer cc.Delete(w.Name) //nolint:errcheck — best-effort cleanup
	name, prog := w.Name, w.program()
	panicBlock := -1
	if len(w.Reqs) > 0 {
		panicBlock = w.Reqs[len(w.Reqs)/2]
	}
	fmt.Printf("loadgen: chaos: bitflip=%g transient=%g panic block=%d seed=%d\n",
		chaosBitflip, chaosTransient, panicBlock, chaosSeed)
	faults := faultinj.Options{Seed: chaosSeed, BitFlipRate: chaosBitflip, TransientRate: chaosTransient}
	if panicBlock >= 0 {
		faults.PanicBlocks = []int{panicBlock}
	}
	faultFamilies := []string{famCorruptBlocks, famCodecPanics, famRetries}
	before, err := scrape(cc, faultFamilies...)
	if err != nil {
		return 0, err
	}
	if err := setFaults(cc, name, faults); err != nil {
		return 0, err
	}

	// Health monitor: poll failures are counted, not fatal — the verdict
	// on liveness is the final /healthz probe.
	statesSeen := make(map[string]bool)
	var pollErrs int64
	stopMon := watch(100*time.Millisecond, func() {
		info, err := cc.Image(name)
		if err != nil {
			pollErrs++
			return
		}
		statesSeen[info.Health] = true
	})

	// Failures are retried client-side a couple of times (the server
	// already retries transient faults internally); a body mismatch is
	// never retried — the invariant is already gone.
	var panicFails atomic.Int64
	storm := w.blockReplay(cc, "chaos", cfg.Loops, cfg.Concurrency)
	read := storm.read
	storm.read = func(win window) ([]byte, error) {
		body, err := retry(3, func() ([]byte, error) { return read(win) })
		if err != nil && prog.first(win) == panicBlock {
			panicFails.Add(1)
		}
		return body, err
	}
	// Prime the panic block so panics_recovered and the bad-block list
	// are populated whatever the trace ordering does.
	var prime replayResult
	if panicBlock >= 0 {
		prime = replay{prog: prog, workers: 1, label: "chaos", read: read,
			next: stream(3, func(int) window { return prog.block(panicBlock) })}.run()
	}
	res := storm.run()
	stopMon()

	after, stErr := scrape(cc, faultFamilies...)
	corrupt := after[famCorruptBlocks] - before[famCorruptBlocks]
	panics := after[famCodecPanics] - before[famCodecPanics]
	retries := after[famRetries] - before[famRetries]
	var states []string
	for s := range statesSeen {
		states = append(states, s)
	}
	fmt.Printf("loadgen: chaos: %d served ok, %d failed (%d on panic block) in %v; %d metric-poll errors\n",
		res.ok, res.failed, panicFails.Load(), res.elapsed.Round(time.Millisecond), pollErrs)
	fmt.Printf("loadgen: chaos: server detected %d corrupt blocks, recovered %d panics, retried %d, health states seen %v\n",
		corrupt, panics, retries, states)

	c := checks{drill: "chaos"}
	c.check(res.corrupt+prime.corrupt == 0, "zero corrupt bytes served")
	_, err = cc.Healthz()
	c.check(err == nil, "daemon alive after the storm")
	c.check(stErr == nil && corrupt > 0, "injected bit flips were detected (romserver_corrupt_blocks_total rose)")
	c.check(stErr == nil && panics > 0, "codec panics were contained (romserver_codec_panics_total rose)")
	c.check(statesSeen["degraded"] || statesSeen["quarantined"], "degradation observable in the image's health")
	c.check(res.ok > 0, "requests still succeed under faults")

	// Lift the faults; the background re-verifier must bring the image
	// back without any client traffic.
	if err := cc.ClearFaults(name); err != nil {
		return c.failed, err
	}
	fmt.Printf("loadgen: chaos: faults lifted, waiting for recovery\n")
	c.check(waitFor(90*time.Second, func() bool {
		health, err := cc.Healthz()
		if err != nil {
			return false
		}
		for _, h := range health {
			if h.Image == name {
				return h.State == "healthy" && h.BadBlocks == 0
			}
		}
		return false
	}), "image re-verified back to healthy")

	// Phase 2: batched range reads under fire. Re-arm the bit-flip and
	// transient faults (no panic block — that one only ever quarantines)
	// and sweep the whole image through GET /blocks?range=i-j in spans of
	// 16 blocks. A refused span is tolerated, a corrupt byte served is
	// not, spans must still succeed, and the successful spans must
	// amortize pool dispatches below one per block.
	faults.Seed, faults.PanicBlocks = chaosSeed+1, nil
	if err := setFaults(cc, name, faults); err != nil {
		return c.failed, err
	}
	var rst rangeTotals
	blocks := prog.blocks()
	sweep := replay{prog: prog, workers: 1, label: "chaos",
		next: stream((blocks+15)/16, func(i int) window { return prog.span(16*i, min(16*i+15, blocks-1)) }),
		read: func(win window) ([]byte, error) {
			return retry(3, func() ([]byte, error) { return rst.read(cc, name, prog, win) })
		},
	}.run()
	fmt.Printf("loadgen: chaos: range sweep: %d spans ok, %d blocks via %d dispatches (%d decoded under faults)\n",
		sweep.ok, rst.blocks.Load(), rst.dispatches.Load(), rst.decoded.Load())
	c.check(sweep.corrupt == 0 && sweep.ok > 0, "batched range reads byte-exact under faults")
	c.check(rst.blocks.Load() > 0 && rst.dispatches.Load() < rst.blocks.Load(), "range reads amortized pool dispatches below per-block cost")
	if err := cc.ClearFaults(name); err != nil {
		return c.failed, err
	}
	// The sweep's detected corruptions may have re-degraded the image;
	// give the re-verifier time before the readiness verdict.
	c.check(waitFor(90*time.Second, func() bool { return cc.Readyz() == nil }), "/readyz reports ready after recovery")
	return c.failed, nil
}

// setFaults installs a fault injector, pointing at the daemon flag that
// enables fault injection when the daemon refuses.
func setFaults(cc *client.Client, name string, opts faultinj.Options) error {
	err := cc.SetFaults(name, opts)
	var se *client.StatusError
	if errors.As(err, &se) && se.Code == http.StatusForbidden {
		return fmt.Errorf("chaos needs a daemon started with -enable-fault-injection: %s", se.Body)
	}
	return err
}

// retry calls f up to attempts times until it succeeds.
func retry(attempts int, f func() ([]byte, error)) (body []byte, err error) {
	for range attempts {
		if body, err = f(); err == nil {
			return body, nil
		}
	}
	return nil, err
}

// rangeTotals sums the X-Range-* stats of successful range reads.
type rangeTotals struct {
	blocks, cached, dispatches, decoded atomic.Int64
}

// read fetches the blocks a span window covers through the batched range
// path and adds up how the server served them.
func (t *rangeTotals) read(cc *client.Client, name string, p program, win window) ([]byte, error) {
	body, st, err := cc.Range(context.Background(), name, p.first(win), p.last(win))
	if err == nil {
		t.blocks.Add(int64(st.Blocks))
		t.cached.Add(int64(st.CachedBlocks))
		t.dispatches.Add(int64(st.Dispatches))
		t.decoded.Add(int64(st.DecodedBlocks))
	}
	return body, err
}

// Range replays the block-request stream through the batched range
// endpoint: every request becomes a span of cfg.RangeSpan consecutive
// blocks, every response body is verified against the original text,
// and the report compares the worker-pool dispatches the server used
// (summed from the X-Range-Dispatches headers) against the one ticket
// per block the same stream would have cost through GET /blocks/{i}.
func Range(cfg Config, cc *client.Client, w *Workload) (int, error) {
	if err := upload(cc, w.Name, w.Image); err != nil {
		return 0, err
	}
	prog, span := w.program(), cfg.RangeSpan
	var rst rangeTotals
	res := replay{prog: prog, workers: cfg.Concurrency, label: "range",
		next: stream(cfg.Loops*len(w.Reqs), func(i int) window {
			b := w.Reqs[i%len(w.Reqs)]
			return prog.span(b, min(b+span-1, w.Blocks-1))
		}),
		read: func(win window) ([]byte, error) { return rst.read(cc, w.Name, prog, win) },
	}.run()

	blocks, dispatches := rst.blocks.Load(), rst.dispatches.Load()
	fmt.Printf("loadgen: range: %d spans ok, %d failed, %d mismatched in %v\n",
		res.ok, res.failed, res.corrupt, res.elapsed.Round(time.Millisecond))
	fmt.Printf("loadgen: range: %d block reads served by %d pool dispatches (%d cached, %d decoded) — %.1f%% of per-block dispatch cost\n",
		blocks, dispatches, rst.cached.Load(), rst.decoded.Load(), pct(dispatches, blocks))
	c := checks{drill: "range"}
	c.check(res.failed == 0 && res.corrupt == 0, "every span served byte-exact")
	c.check(span <= 1 || dispatches < blocks, "batched reads used fewer dispatches than per-block reads")
	return c.failed, nil
}
