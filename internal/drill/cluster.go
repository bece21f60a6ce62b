// The cluster chaos drill.

package drill

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"codecomp/internal/cluster"
	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/romserver"
)

// clusterServerOptions is the per-node romserver tuning: a cache smaller
// than the trace's working set, so replays actually miss — that is what
// makes the hit-ratio comparison against the baseline meaningful.
// Sharding helps here: with per-block read rotation each replica only
// needs to keep its share of the working set hot, so the cluster can
// match or beat the baseline with the same per-node cache.
func clusterServerOptions() romserver.Options {
	return romserver.Options{CacheBlocks: 512, Workers: 4}
}

// The cluster drill's size: three nodes, each image on two of them, so
// killing one member leaves every image a live replica.
const (
	clusterNodes = 3
	clusterRF    = 2
)

// bootHarness starts an in-process cluster over a temporary data root;
// the returned close tears both down.
func bootHarness(nodes, replication int) (*cluster.Harness, func(), error) {
	dir, err := os.MkdirTemp("", "loadgen-cluster-*")
	if err != nil {
		return nil, nil, err
	}
	h, err := cluster.NewHarness(cluster.HarnessOptions{
		Nodes: nodes, Replication: replication, DataRoot: dir, Server: clusterServerOptions(),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return h, func() { h.Close(); os.RemoveAll(dir) }, nil
}

// sumNodes sums the named families over the /metrics of every running
// node of h.
func sumNodes(h *cluster.Harness, names ...string) (map[string]int64, error) {
	sum := make(map[string]int64, len(names))
	for _, hn := range h.Nodes() {
		if hn.Node() == nil {
			continue
		}
		vals, err := scrape(client.New(hn.URL(), nil), names...)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", hn.Name(), err)
		}
		for name, v := range vals {
			sum[name] += v
		}
	}
	return sum, nil
}

// measureHitRatio runs one verified replay bracketed by scrapes of every
// node's /metrics and returns the run's cache hit ratio across nodes.
func measureHitRatio(h *cluster.Harness, r replay) (replayResult, float64, error) {
	before, err := sumNodes(h, famCacheHits, famCacheMisses)
	if err != nil {
		return replayResult{}, 0, err
	}
	res := r.run()
	after, err := sumNodes(h, famCacheHits, famCacheMisses)
	if err != nil {
		return res, 0, err
	}
	hits := after[famCacheHits] - before[famCacheHits]
	misses := after[famCacheMisses] - before[famCacheMisses]
	if hits+misses == 0 {
		return res, 0, nil
	}
	return res, float64(hits) / float64(hits+misses), nil
}

// baselineHitRatio measures the same trace against a single-node rf=1
// cluster — the reference the sharded cluster must stay within 2 points
// of after recovery.
func baselineHitRatio(cfg Config, w *Workload) (float64, error) {
	h, closeH, err := bootHarness(1, 1)
	if err != nil {
		return 0, err
	}
	defer closeH()
	ccr := client.New(h.RouterURL(), nil)
	if _, err := ccr.Upload(w.Name, w.Image); err != nil {
		return 0, err
	}
	if res := w.blockReplay(ccr, "cluster", 1, cfg.Concurrency).run(); res.corrupt > 0 || res.failed > 0 {
		return 0, fmt.Errorf("baseline warm replay: %d corrupt, %d failed", res.corrupt, res.failed)
	}
	_, ratio, err := measureHitRatio(h, w.blockReplay(ccr, "cluster", cfg.Loops, cfg.Concurrency))
	return ratio, err
}

// Cluster boots an in-process multi-node cluster (real listeners, real
// HTTP), replays the block trace through the router, and checks the
// cluster's promises under failure:
//
//  1. Zero corrupt bytes: every 200 response is byte-compared against
//     the original program text for the whole run, including while a
//     node is down and while a new node joins.
//  2. Kill/restart survival: a replica owner of the image is killed at
//     ~1/3 of the replay and restarted at ~2/3; reads fail over and the
//     router's health machine ejects and restores the member.
//  3. Disk recovery: the restarted node must come back already owning
//     its images (store recovery), so the router's reconcile pass
//     re-uploads nothing.
//  4. Hit ratio holds: the post-recovery measured hit ratio must stay
//     within 2 points of a single-node baseline on the same trace.
//  5. Rebalancing under load: a fresh node joins mid-replay (epoch
//     bump, incremental image movement) with the byte-exactness
//     invariant still standing.
func Cluster(cfg Config, w *Workload) (int, error) {
	fmt.Printf("loadgen: cluster: %d nodes, rf=%d, %d reqs/loop x %d loops, %d clients\n",
		clusterNodes, clusterRF, len(w.Reqs), cfg.Loops, cfg.Concurrency)
	c := checks{drill: "cluster"}

	h0, err := baselineHitRatio(cfg, w)
	if err != nil {
		return 0, err
	}
	fmt.Printf("loadgen: cluster: single-node baseline hit ratio %.2f%%\n", 100*h0)

	h, closeH, err := bootHarness(clusterNodes, clusterRF)
	if err != nil {
		return 0, err
	}
	defer closeH()
	rt := h.Router()
	ccr := client.New(h.RouterURL(), nil)
	pass := func(loops int) replay { return w.blockReplay(ccr, "cluster", loops, cfg.Concurrency) }

	info, err := ccr.Upload(w.Name, w.Image)
	if err != nil {
		return 0, err
	}
	owners := rt.Ring().Lookup(w.Name)
	fmt.Printf("loadgen: cluster: %q (%d blocks) placed on %v (epoch %d)\n",
		w.Name, info.Blocks, owners, rt.Ring().Epoch())

	// Warm the replica caches so the chaos phase runs against a
	// realistic steady state, not a cold start.
	if res := pass(1).run(); res.corrupt > 0 {
		c.check(false, "zero corrupt bytes during warmup")
	}

	// Chaos replay: kill a replica owner of the image at ~1/3 done,
	// restart it at ~2/3. The scheduler rides the request counter so the
	// timing scales with trace length instead of wall clock.
	victim := owners[0]
	total := int64(cfg.Loops * len(w.Reqs))
	killAt, restartAt := total/3, 2*total/3
	reg := obsv.NewRegistry()
	chaos := pass(cfg.Loops)
	chaos.lat = reg.Histogram("loadgen_cluster_block_seconds", "Client-side block latency through the router during the chaos replay.")
	var killed, restarted atomic.Bool
	var chaosErr error
	var chaosMu sync.Mutex
	act := func(flag *atomic.Bool, verb string, done int64, f func(string) error) {
		if !flag.CompareAndSwap(false, true) {
			return
		}
		fmt.Printf("loadgen: cluster: %s %s (%d/%d requests done)\n", verb, victim, done, total)
		if err := f(victim); err != nil {
			chaosMu.Lock()
			chaosErr = err
			chaosMu.Unlock()
		}
	}
	chaos.onDone = func(done int64) {
		if done >= killAt {
			act(&killed, "killing", done, h.Kill)
		}
		if done >= restartAt {
			act(&restarted, "restarting", done, h.Restart)
		}
	}
	res := chaos.run()
	if chaosErr != nil {
		return c.failed, chaosErr
	}
	snap := chaos.lat.Snapshot()
	fmt.Printf("loadgen: cluster: chaos replay: %d ok, %d failed, %d corrupt in %v; p50 %v p99 %v\n",
		res.ok, res.failed, res.corrupt, res.elapsed.Round(time.Millisecond),
		rnd(snap.Quantile(0.50)), rnd(snap.Quantile(0.99)))

	c.check(res.corrupt == 0, "zero corrupt bytes served across kill and restart")
	c.check(killed.Load() && restarted.Load(), "node was killed and restarted mid-replay")
	// The router retries every replica before failing a read, so even
	// the kill moment should not surface errors to clients.
	c.check(res.failed == 0, "no client-visible failures (reads failed over)")
	c.check(snap.Count > 0 && snap.Quantile(0.99) < 2*time.Second, "chaos replay p99 under 2s")

	// Restore: the prober must bring the victim back into placement, and
	// because its disk store recovered the images, reconcile must have
	// nothing to re-upload.
	c.check(waitFor(30*time.Second, func() bool {
		for _, n := range rt.Nodes() {
			if n.Name == victim && n.Ejected {
				return false
			}
		}
		return true
	}), "restarted node restored into placement")
	time.Sleep(500 * time.Millisecond) // let the reconcile pass finish
	c.check(rt.ReconcileUploads() == 0, "restarted node recovered images from disk (0 reconcile re-uploads)")
	holds := false
	for _, hn := range h.Nodes() {
		if hn.Name() == victim && hn.Node() != nil {
			_, err := hn.Node().Server().Image(w.Name)
			holds = err == nil
		}
	}
	c.check(holds, "restarted node serves the image without re-registration")

	// Post-recovery hit ratio vs the single-node baseline. One warm loop
	// first: the victim came back with a cold cache through no fault of
	// the placement layer.
	if r := pass(1).run(); r.corrupt > 0 {
		c.check(false, "zero corrupt bytes during warm-back")
	}
	mres, h1, err := measureHitRatio(h, pass(cfg.Loops))
	if err != nil {
		return c.failed, err
	}
	fmt.Printf("loadgen: cluster: post-recovery hit ratio %.2f%% (baseline %.2f%%)\n", 100*h1, 100*h0)
	c.check(mres.corrupt == 0 && mres.failed == 0, "measured replay clean")
	c.check(h1 >= h0-0.02, "post-recovery hit ratio within 2 points of single-node baseline")

	// Join a fresh node mid-replay: placement must rebalance under load
	// with the byte-exactness invariant intact.
	joinName := fmt.Sprintf("node-%d", clusterNodes)
	joinDone := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		_, err := h.Join(joinName)
		joinDone <- err
	}()
	jres := pass(cfg.Loops).run()
	if err := <-joinDone; err != nil {
		return c.failed, err
	}
	fmt.Printf("loadgen: cluster: join replay: %d ok, %d failed, %d corrupt (epoch now %d)\n",
		jres.ok, jres.failed, jres.corrupt, rt.Ring().Epoch())
	c.check(jres.corrupt == 0, "zero corrupt bytes while a node joined mid-replay")
	c.check(jres.failed == 0, "no client-visible failures during the join rebalance")
	inRing := false
	for _, n := range rt.Ring().Nodes() {
		inRing = inRing || n == joinName
	}
	c.check(inRing, "joined node is in the ring")
	return c.failed, nil
}
