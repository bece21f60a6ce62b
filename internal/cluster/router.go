// The router: the cluster's thin proxy tier. It owns the ring, fans
// image registrations out to every replica, serves block reads with
// request hedging (a second replica is tried once the first is slower
// than the fleet's recent p99), ejects members from placement with the
// same sliding-window health machine faultlab uses for images, probes
// ejected members back to life, and rebalances placement on node
// join/leave under generation-stamped ring epochs so an in-flight
// request never reads a half-applied placement.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// ErrNoReplicas is returned when a read cannot be placed: the ring is
// empty or every replica is ejected and unreachable.
var ErrNoReplicas = errors.New("cluster: no live replicas")

// RouterOptions configures a Router.
type RouterOptions struct {
	// VNodes is each node's virtual-node count (default DefaultVNodes).
	VNodes int
	// Replication is how many nodes hold each image (default
	// DefaultReplication, clamped to the member count).
	Replication int
	// HedgeDefault is the hedge delay used until enough upstream
	// latency samples exist to derive a p99 (default 30ms).
	HedgeDefault time.Duration
	// ProbeInterval is how often members are health-probed and ejected
	// members retried (default 250ms; negative disables the prober —
	// tests drive ProbeOnce by hand).
	ProbeInterval time.Duration
	// HTTP is the proxy-side http.Client; nil uses a 10s-timeout client.
	HTTP *http.Client
	// Logf receives router log lines; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// member is one node from the router's point of view: its client, its
// health window, and whether it is currently ejected from placement.
type member struct {
	name    string
	addr    string
	cli     *client.Client
	health  *romserver.HealthTracker
	ejected atomic.Bool
	// overloadUntil is the UnixNano instant until which the member is
	// treated as overloaded (it answered 429 or a brownout 503 with
	// Retry-After): alive for health accounting, but not worth hedging
	// into.
	overloadUntil atomic.Int64
}

// overloaded reports whether the member is inside an overload backoff
// window signalled by a recent 429/503+Retry-After answer.
func (m *member) overloaded() bool {
	return time.Now().UnixNano() < m.overloadUntil.Load()
}

// Router proxies the serving API across cluster members. Construct
// with NewRouter, add members with AddNode, serve Handler(), Close when
// done.
type Router struct {
	opts RouterOptions
	reg  *obsv.Registry
	mux  *http.ServeMux
	logf func(format string, args ...any)

	// ring is the current placement; immutable value, atomically
	// swapped. Requests load it once and resolve their whole replica
	// set against that epoch.
	ring atomic.Pointer[Ring]

	// mu serializes membership changes, rebalances and catalog writes.
	// The read path never takes it — it works from the ring snapshot
	// and the members map guarded by memMu.
	mu      sync.Mutex
	epoch   uint64
	catalog map[string]catalogEntry

	memMu   sync.RWMutex
	members map[string]*member

	quit chan struct{}
	wg   sync.WaitGroup

	// hedge delay cache: recomputing a p99 per request would make the
	// histogram snapshot the hot path, so the derived delay is refreshed
	// at most every hedgeRefresh.
	hedgeMu   sync.Mutex
	hedgeAt   time.Time
	hedgeVal  time.Duration
	closeOnce sync.Once

	// budget caps hedge amplification: every block fetch deposits
	// hedgeBudgetRatio tokens, every hedge spends one.
	budget *overload.RetryBudget

	requests         *obsv.CounterVec
	errorsTotal      *obsv.CounterVec
	requestSeconds   *obsv.HistogramVec
	upstreamSeconds  *obsv.Histogram
	upstreamFailures *obsv.Counter
	hedges           *obsv.Counter
	hedgeWins        *obsv.Counter
	hedgesDenied     *obsv.Counter
	hedgesSuppressed *obsv.Counter
	ejections        *obsv.Counter
	restores         *obsv.Counter
	rebalanceMoved   *obsv.Counter
	reconcileUploads *obsv.Counter
	probeFailures    *obsv.Counter
}

// catalogEntry is the router's durable record of one registered image:
// the payload (the source of truth rebalancing and reconciliation
// re-upload from) and the metadata returned by list endpoints.
type catalogEntry struct {
	payload []byte
	info    romserver.ImageInfo
}

// hedgeRefresh bounds how often the p99-derived hedge delay is
// recomputed from the upstream histogram.
const hedgeRefresh = 500 * time.Millisecond

// hedgeMinSamples is how many upstream latency samples must exist
// before the p99 is trusted over HedgeDefault.
const hedgeMinSamples = 50

// hedgeMin and hedgeMax clamp the derived hedge delay: never hedge so
// eagerly that every request doubles load, never so lazily the hedge is
// pointless.
const (
	hedgeMin = time.Millisecond
	hedgeMax = 250 * time.Millisecond
)

// memberOutcomeWindow is the per-member sliding window of request
// outcomes: small, so a killed node is ejected within a few requests.
const memberOutcomeWindow = 16

// The hedge budget: each block fetch deposits hedgeBudgetRatio tokens
// and each hedge spends one, so hedge amplification is capped at about
// 1+hedgeBudgetRatio; hedgeBudgetBurst is the bucket's capacity.
const (
	hedgeBudgetRatio = 0.1
	hedgeBudgetBurst = 8
)

// NewRouter builds the router and starts its health prober.
func NewRouter(opts RouterOptions) *Router {
	if opts.VNodes <= 0 {
		opts.VNodes = DefaultVNodes
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.HedgeDefault <= 0 {
		opts.HedgeDefault = 30 * time.Millisecond
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{Timeout: 10 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	reg := obsv.NewRegistry()
	rt := &Router{
		opts:    opts,
		reg:     reg,
		logf:    opts.Logf,
		catalog: make(map[string]catalogEntry),
		members: make(map[string]*member),
		quit:    make(chan struct{}),
		budget:  overload.NewRetryBudget(hedgeBudgetRatio, hedgeBudgetBurst),
	}
	rt.ring.Store(BuildRing(0, nil, opts.VNodes, opts.Replication))

	rt.requests = reg.CounterVec("router_requests_total",
		"Requests served by the router, by route.", "route")
	rt.errorsTotal = reg.CounterVec("router_errors_total",
		"Requests that failed (status >= 500 after all replicas were tried), by route.", "route")
	rt.requestSeconds = reg.HistogramVec("router_request_seconds",
		"End-to-end router request latency, by route.", "route")
	rt.upstreamSeconds = reg.Histogram("router_upstream_seconds",
		"Latency of individual upstream block fetches (each hedge attempt observes separately); its p99 derives the hedge delay.")
	rt.upstreamFailures = reg.Counter("router_upstream_failures_total",
		"Individual upstream attempts that failed (transport error or 5xx).")
	rt.hedges = reg.Counter("router_hedges_total",
		"Hedge requests launched because the primary exceeded the p99-derived delay.")
	rt.hedgeWins = reg.Counter("router_hedge_wins_total",
		"Hedged requests where the hedge, not the primary, delivered the response.")
	rt.hedgesDenied = reg.Counter("router_hedges_denied_total",
		"Hedges refused by the token-bucket hedge budget (speculative load capped under fault storms).")
	rt.hedgesSuppressed = reg.Counter("router_hedges_suppressed_total",
		"Hedges skipped because the candidate replica recently signalled overload (429/503 + Retry-After).")
	rt.ejections = reg.Counter("router_node_ejections_total",
		"Members removed from placement after their request-outcome window crossed the quarantine threshold.")
	rt.restores = reg.Counter("router_node_restores_total",
		"Ejected members restored to placement after probes recovered their health window.")
	rt.rebalanceMoved = reg.Counter("router_rebalance_images_moved_total",
		"Image copies uploaded to new owners during join/leave rebalances.")
	rt.reconcileUploads = reg.Counter("router_reconcile_uploads_total",
		"Images re-uploaded to a restored member that lost them across its restart; stays 0 when disk recovery works.")
	rt.probeFailures = reg.Counter("router_probe_failures_total",
		"Health probes that failed.")
	reg.GaugeFunc("router_retry_budget_tokens",
		"Hedge-budget tokens currently available.",
		func() float64 { return rt.budget.Tokens() })
	reg.GaugeFunc("router_ring_epoch",
		"Current placement generation; increments on every membership change.",
		func() float64 { return float64(rt.Ring().Epoch()) })
	reg.GaugeFunc("router_nodes",
		"Cluster members.",
		func() float64 {
			rt.memMu.RLock()
			defer rt.memMu.RUnlock()
			return float64(len(rt.members))
		})
	reg.GaugeFunc("router_nodes_ready",
		"Members currently in placement (not ejected).",
		func() float64 {
			rt.memMu.RLock()
			defer rt.memMu.RUnlock()
			n := 0
			for _, m := range rt.members {
				if !m.ejected.Load() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("router_images",
		"Images in the router catalog.",
		func() float64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return float64(len(rt.catalog))
		})

	rt.buildMux()
	if opts.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.prober()
	}
	return rt
}

// Ring returns the current placement snapshot.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obsv.Registry { return rt.reg }

// Handler returns the router's HTTP API.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the prober. It does not touch the member nodes.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() { close(rt.quit) })
	rt.wg.Wait()
	return nil
}

// AddNode joins a member and rebalances placement onto it. The node
// keeps whatever images it already holds (a restarted node rejoining
// under the same name reuses its disk store); rebalancing only uploads
// what is missing.
func (rt *Router) AddNode(name, addr string) error {
	if name == "" || addr == "" {
		return fmt.Errorf("cluster: node needs name and address")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.memMu.Lock()
	if _, dup := rt.members[name]; dup {
		rt.memMu.Unlock()
		return fmt.Errorf("cluster: node %q already joined", name)
	}
	rt.members[name] = &member{
		name:   name,
		addr:   addr,
		cli:    client.New(addr, rt.opts.HTTP),
		health: romserver.NewHealthTracker(memberOutcomeWindow),
	}
	rt.memMu.Unlock()
	rt.logf("cluster router: node %s joined at %s", name, addr)
	return rt.rebalanceLocked()
}

// RemoveNode leaves a member and rebalances its images onto the
// remaining nodes.
func (rt *Router) RemoveNode(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.memMu.Lock()
	if _, ok := rt.members[name]; !ok {
		rt.memMu.Unlock()
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	delete(rt.members, name)
	rt.memMu.Unlock()
	rt.logf("cluster router: node %s left", name)
	return rt.rebalanceLocked()
}

// memberNames returns current member names (any order).
func (rt *Router) memberNames() []string {
	rt.memMu.RLock()
	defer rt.memMu.RUnlock()
	names := make([]string, 0, len(rt.members))
	for n := range rt.members {
		names = append(names, n)
	}
	return names
}

// getMember resolves a ring name to its member, nil if it left.
func (rt *Router) getMember(name string) *member {
	rt.memMu.RLock()
	defer rt.memMu.RUnlock()
	return rt.members[name]
}

// rebalanceLocked (rt.mu held) applies the current membership:
//  1. build the next ring at epoch+1;
//  2. upload every catalog image to new owners that miss it — all
//     while reads still resolve against the old ring, which stays fully
//     valid;
//  3. swap the ring pointer (the atomic epoch cut-over);
//  4. drop image copies from members that no longer own them. A
//     straggler request that resolved the old ring and hits a
//     just-cleaned node gets a 404 and fails over to the next replica,
//     which step 2 guaranteed has the bytes.
func (rt *Router) rebalanceLocked() error {
	rt.epoch++
	next := BuildRing(rt.epoch, rt.memberNames(), rt.opts.VNodes, rt.opts.Replication)

	// What each member currently holds, so uploads are incremental.
	holdings := rt.scanHoldings()

	var firstErr error
	owners := make(map[string]map[string]bool, len(next.Nodes())) // member -> owned images
	for name, ent := range rt.catalog {
		for _, owner := range next.Lookup(name) {
			if owners[owner] == nil {
				owners[owner] = make(map[string]bool)
			}
			owners[owner][name] = true
			if holdings[owner] != nil && holdings[owner][name] {
				continue
			}
			m := rt.getMember(owner)
			if m == nil {
				continue
			}
			if _, err := m.cli.Upload(name, ent.payload); err != nil {
				// An unreachable member (mid-kill) just misses the copy;
				// the prober's reconcile pass repairs it on restore.
				rt.logf("cluster router: rebalance: upload %q to %s: %v", name, owner, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			rt.rebalanceMoved.Inc()
		}
	}
	rt.ring.Store(next)
	rt.logf("cluster router: %s live", next)

	// Cleanup: drop copies from members that no longer own them.
	for mname, held := range holdings {
		m := rt.getMember(mname)
		if m == nil {
			continue
		}
		for img := range held {
			if _, still := rt.catalog[img]; still && owners[mname][img] {
				continue
			}
			if err := m.cli.Delete(img); err != nil {
				rt.logf("cluster router: rebalance: drop %q from %s: %v", img, mname, err)
			}
		}
	}
	return firstErr
}

// scanHoldings asks every reachable member what it currently holds.
func (rt *Router) scanHoldings() map[string]map[string]bool {
	holdings := make(map[string]map[string]bool)
	rt.memMu.RLock()
	ms := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		ms = append(ms, m)
	}
	rt.memMu.RUnlock()
	for _, m := range ms {
		infos, err := m.cli.Images()
		if err != nil {
			continue
		}
		set := make(map[string]bool, len(infos))
		for _, in := range infos {
			set[in.Name] = true
		}
		holdings[m.name] = set
	}
	return holdings
}

// Register places an image: record it in the catalog, upload it to
// every replica the ring assigns. At least one replica must accept;
// unreachable replicas are repaired by reconcile.
func (rt *Router) Register(name string, payload []byte) (romserver.ImageInfo, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ring := rt.Ring()
	owners := ring.Lookup(name)
	if len(owners) == 0 {
		return romserver.ImageInfo{}, ErrNoReplicas
	}
	var info romserver.ImageInfo
	var firstErr error
	ok := 0
	for _, owner := range owners {
		m := rt.getMember(owner)
		if m == nil {
			continue
		}
		in, err := m.cli.Upload(name, payload)
		if err != nil {
			rt.logf("cluster router: register %q on %s: %v", name, owner, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok == 0 {
			info = in
		}
		ok++
	}
	if ok == 0 {
		if firstErr == nil {
			firstErr = ErrNoReplicas
		}
		return romserver.ImageInfo{}, firstErr
	}
	rt.catalog[name] = catalogEntry{payload: append([]byte(nil), payload...), info: info}
	return info, nil
}

// Deregister removes an image from the catalog and from its replicas.
func (rt *Router) Deregister(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.catalog[name]; !ok {
		return romserver.ErrNotFound
	}
	delete(rt.catalog, name)
	for _, owner := range rt.Ring().Lookup(name) {
		if m := rt.getMember(owner); m != nil {
			if err := m.cli.Delete(name); err != nil {
				rt.logf("cluster router: deregister %q on %s: %v", name, owner, err)
			}
		}
	}
	return nil
}

// hedgeDelay returns the p99-derived hedge delay, cached for
// hedgeRefresh between histogram snapshots.
func (rt *Router) hedgeDelay() time.Duration {
	rt.hedgeMu.Lock()
	defer rt.hedgeMu.Unlock()
	if time.Since(rt.hedgeAt) < hedgeRefresh && rt.hedgeVal > 0 {
		return rt.hedgeVal
	}
	d := rt.opts.HedgeDefault
	if snap := rt.upstreamSeconds.Snapshot(); snap.Count >= hedgeMinSamples {
		d = snap.Quantile(0.99)
	}
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	rt.hedgeAt = time.Now()
	rt.hedgeVal = d
	return d
}

// recordOutcome feeds one upstream attempt into the member's health
// window. Transport errors and 5xx responses are failures; 4xx means
// the node is alive and answering (it may simply not hold the image
// mid-rebalance), so it counts as a success for node health. Overload
// signals — 429, or a 503 carrying Retry-After (a brownout shed, not a
// dead node) — also count as alive, but start the member's overload
// backoff window so hedges stop piling onto it.
func (rt *Router) recordOutcome(m *member, err error) {
	failed := false
	if err != nil {
		var se *client.StatusError
		switch {
		case !errors.As(err, &se):
			failed = true
		case se.Code == http.StatusTooManyRequests,
			se.Code == http.StatusServiceUnavailable && se.RetryAfter > 0:
			backoff := se.RetryAfter
			if backoff <= 0 {
				backoff = time.Second
			}
			m.overloadUntil.Store(time.Now().Add(backoff).UnixNano())
		case se.Code >= 500:
			failed = true
		}
	}
	to, changed := m.health.Record(failed)
	if !changed {
		return
	}
	switch to {
	case romserver.Quarantined:
		if m.ejected.CompareAndSwap(false, true) {
			rt.ejections.Inc()
			rt.logf("cluster router: node %s ejected (failure rate %.2f)", m.name, m.health.FailureRate())
		}
	case romserver.Healthy:
		if m.ejected.CompareAndSwap(true, false) {
			rt.restores.Inc()
			rt.logf("cluster router: node %s restored", m.name)
			go rt.reconcile(m)
		}
	}
}

// blockResult is one upstream attempt's outcome — a block fetch or a
// sub-block byte read (which also carries range stats and the decoded-
// bytes figure).
type blockResult struct {
	data    []byte
	hit     bool
	st      romserver.RangeStats
	decoded int
	err     error
	m       *member
}

// FetchBlockContext reads one block through placement, failover and
// hedging: replicas are ordered by block index (spreading reads across
// the replica set), ejected members are tried last, a failed attempt
// moves on immediately, and a slow attempt is hedged after hedgeDelay.
// First success wins; every attempt's outcome feeds member health.
// ctx's deadline propagates to every upstream attempt. Hedges are
// containment-gated twice: the token hedge budget caps speculative
// amplification, and replicas inside an overload backoff window are
// skipped rather than hedged into.
func (rt *Router) FetchBlockContext(ctx context.Context, name string, i int) ([]byte, bool, error) {
	r, err := rt.fetchHedged(name, i, func(m *member) blockResult {
		data, hit, err := m.cli.BlockContext(ctx, name, i)
		return blockResult{data: data, hit: hit, err: err}
	})
	if err != nil {
		return nil, false, err
	}
	return r.data, r.hit, nil
}

// FetchBytesContext reads n decompressed bytes at absolute byte offset
// off through the same placement, failover and hedging machinery as
// FetchBlockContext; replicas rotate by offset so interleaved sub-block
// readers spread across the replica set. Returns the bytes, the range
// stats and the serving replica's decoded-bytes figure.
func (rt *Router) FetchBytesContext(ctx context.Context, name string, off, n int) ([]byte, romserver.RangeStats, int, error) {
	r, err := rt.fetchHedged(name, off, func(m *member) blockResult {
		data, st, decoded, err := m.cli.ReadBytesContext(ctx, name, off, n)
		return blockResult{data: data, st: st, decoded: decoded, err: err}
	})
	if err != nil {
		return nil, romserver.RangeStats{}, 0, err
	}
	return r.data, r.st, r.decoded, nil
}

// fetchHedged is the shared replica-selection, failover and hedging
// loop behind the fetch paths: replicas rotated by rot with ejected
// members stable-sorted to the back, one try per replica launched on
// failure, a hedge launched after hedgeDelay when the budget allows
// and the next replica is not inside an overload backoff window. First
// success wins; every attempt's outcome feeds member health.
func (rt *Router) fetchHedged(name string, rot int, try func(m *member) blockResult) (blockResult, error) {
	ring := rt.Ring()
	owners := ring.Lookup(name)
	if len(owners) == 0 {
		return blockResult{}, ErrNoReplicas
	}
	// Rotate so consecutive blocks (or offsets) of one image spread
	// across replicas, then stable-sort ejected members to the back as
	// last resorts.
	order := make([]*member, 0, len(owners))
	for k := 0; k < len(owners); k++ {
		if m := rt.getMember(owners[(rot+k)%len(owners)]); m != nil {
			order = append(order, m)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return !order[a].ejected.Load() && order[b].ejected.Load()
	})
	if len(order) == 0 {
		return blockResult{}, ErrNoReplicas
	}

	results := make(chan blockResult, len(order))
	launched := 0
	launch := func() {
		m := order[launched]
		launched++
		go func() {
			start := time.Now()
			r := try(m)
			rt.upstreamSeconds.Observe(time.Since(start))
			r.m = m
			results <- r
		}()
	}
	rt.budget.OnRequest()
	launch()
	hedge := time.NewTimer(rt.hedgeDelay())
	defer hedge.Stop()

	hedged := false
	var firstErr error
	primary := order[0]
	for pending := 1; pending > 0; {
		select {
		case <-hedge.C:
			if launched < len(order) {
				switch {
				case order[launched].overloaded():
					rt.hedgesSuppressed.Inc()
				case !rt.budget.Allow():
					rt.hedgesDenied.Inc()
				default:
					rt.hedges.Inc()
					hedged = true
					launch()
					pending++
				}
			}
		case r := <-results:
			pending--
			rt.recordOutcome(r.m, r.err)
			if r.err == nil {
				if hedged && r.m != primary {
					rt.hedgeWins.Inc()
				}
				return r, nil
			}
			rt.upstreamFailures.Inc()
			if firstErr == nil {
				firstErr = r.err
			}
			if launched < len(order) {
				launch()
				pending++
			}
		}
	}
	return blockResult{}, firstErr
}

// prober periodically health-checks members and reconciles restored
// members.
func (rt *Router) prober() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			rt.ProbeOnce()
		}
	}
}

// ProbeOnce runs one probe pass over all members: healthz each and feed
// the outcome into its health window (which triggers ejection or
// restore).
func (rt *Router) ProbeOnce() {
	rt.memMu.RLock()
	ms := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		ms = append(ms, m)
	}
	rt.memMu.RUnlock()
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			_, err := m.cli.Healthz()
			if err != nil {
				rt.probeFailures.Inc()
			}
			rt.recordOutcome(m, err)
		}(m)
	}
	wg.Wait()
}

// reconcile repairs a restored member: any catalog image the ring says
// it owns but it no longer holds is re-uploaded (counted — a node whose
// disk store recovered needs zero).
func (rt *Router) reconcile(m *member) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	infos, err := m.cli.Images()
	if err != nil {
		rt.logf("cluster router: reconcile %s: %v", m.name, err)
		return
	}
	held := make(map[string]bool, len(infos))
	for _, in := range infos {
		held[in.Name] = true
	}
	ring := rt.Ring()
	for name, ent := range rt.catalog {
		owned := false
		for _, o := range ring.Lookup(name) {
			if o == m.name {
				owned = true
				break
			}
		}
		if !owned || held[name] {
			continue
		}
		if _, err := m.cli.Upload(name, ent.payload); err != nil {
			rt.logf("cluster router: reconcile %s: upload %q: %v", m.name, name, err)
			continue
		}
		rt.reconcileUploads.Inc()
		rt.logf("cluster router: reconcile %s: re-uploaded %q (disk recovery missed it)", m.name, name)
	}
}

// NodeState is one member's row in GET /cluster/nodes.
type NodeState struct {
	// Name is the ring member name.
	Name string `json:"name"`
	// Addr is the node's base URL.
	Addr string `json:"addr"`
	// Health is the member's window state: healthy/degraded/quarantined.
	Health string `json:"health"`
	// Ejected reports whether the member is out of placement.
	Ejected bool `json:"ejected"`
	// FailureRate is the failing fraction of the outcome window.
	FailureRate float64 `json:"failure_rate"`
}

// Nodes reports the membership with health, sorted by name.
func (rt *Router) Nodes() []NodeState {
	rt.memMu.RLock()
	out := make([]NodeState, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, NodeState{
			Name:        m.name,
			Addr:        m.addr,
			Health:      m.health.State().String(),
			Ejected:     m.ejected.Load(),
			FailureRate: m.health.FailureRate(),
		})
	}
	rt.memMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReconcileUploads exposes the reconcile-upload count (the chaos drill
// asserts it stays 0 when disk recovery works).
func (rt *Router) ReconcileUploads() int64 { return rt.reconcileUploads.Value() }

// buildMux wires the router's HTTP API: the serving surface loadgen
// already speaks (so a router is a drop-in for one codecompd) plus the
// /cluster admin endpoints.
func (rt *Router) buildMux() {
	mux := http.NewServeMux()
	// Each route resolves its labeled series once, here, and counts an
	// error only at status >= 500: a 4xx is the caller's mistake, not the
	// cluster's.
	handle := func(pattern, route string, h http.HandlerFunc) {
		reqs := rt.requests.With(route)
		errs := rt.errorsTotal.With(route)
		lat := rt.requestSeconds.With(route)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			reqs.Inc()
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r)
			if sw.status >= 500 {
				errs.Inc()
			}
			lat.Observe(time.Since(start))
		})
	}
	handle("POST /images", "upload", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?name="})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxImageBytes)
		payload, err := io.ReadAll(r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		info, err := rt.Register(name, payload)
		if err != nil {
			writeRouterErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	handle("GET /images", "list", func(w http.ResponseWriter, r *http.Request) {
		rt.mu.Lock()
		infos := make([]romserver.ImageInfo, 0, len(rt.catalog))
		for _, ent := range rt.catalog {
			infos = append(infos, ent.info)
		}
		rt.mu.Unlock()
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		writeJSON(w, http.StatusOK, infos)
	})
	handle("GET /images/{name}", "image", func(w http.ResponseWriter, r *http.Request) {
		rt.mu.Lock()
		ent, ok := rt.catalog[r.PathValue("name")]
		rt.mu.Unlock()
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": romserver.ErrNotFound.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ent.info)
	})
	handle("DELETE /images/{name}", "delete", func(w http.ResponseWriter, r *http.Request) {
		if err := rt.Deregister(r.PathValue("name")); err != nil {
			writeRouterErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle("GET /images/{name}/blocks/{i}", "block", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, i, ok := parseBlockRequest(w, r)
		if !ok {
			return
		}
		defer cancel()
		data, hit, err := rt.FetchBlockContext(ctx, r.PathValue("name"), i)
		if err != nil {
			writeRouterErr(w, err)
			return
		}
		writeBlock(w, data, hit)
	})
	handle("GET /images/{name}/bytes", "bytes", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, off, n, ok := parseBytesRequest(w, r)
		if !ok {
			return
		}
		defer cancel()
		data, st, decoded, err := rt.FetchBytesContext(ctx, r.PathValue("name"), off, n)
		if err != nil {
			writeRouterErr(w, err)
			return
		}
		setRangeHeaders(w.Header(), len(data), st, decoded)
		w.Write(data) //nolint:errcheck — client went away
	})
	handle("GET /cluster/nodes", "nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch": rt.Ring().Epoch(),
			"ring":  rt.Ring().Nodes(),
			"nodes": rt.Nodes(),
		})
	})
	handle("POST /cluster/nodes", "join", func(w http.ResponseWriter, r *http.Request) {
		name, addr := r.URL.Query().Get("name"), r.URL.Query().Get("addr")
		if err := rt.AddNode(name, addr); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"epoch": rt.Ring().Epoch()})
	})
	handle("DELETE /cluster/nodes/{name}", "leave", func(w http.ResponseWriter, r *http.Request) {
		if err := rt.RemoveNode(r.PathValue("name")); err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"epoch": rt.Ring().Epoch()})
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "nodes": rt.Nodes()})
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		nodes := rt.Nodes()
		ready := false
		for _, n := range nodes {
			if !n.Ejected {
				ready = true
				break
			}
		}
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"ready": ready, "nodes": nodes})
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obsv.PrometheusContentType)
		rt.reg.WritePrometheus(w) //nolint:errcheck — client went away
	})
	rt.mux = mux
}

// writeRouterErr maps proxy errors onto HTTP statuses: placement
// failures are 503, a propagated-deadline expiry is 504, upstream
// status errors pass through their code (and their Retry-After hint,
// so an overload rejection survives the proxy hop), transport errors
// are 502.
func writeRouterErr(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var se *client.StatusError
	switch {
	case errors.Is(err, ErrNoReplicas):
		status = http.StatusServiceUnavailable
	case errors.Is(err, romserver.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.As(err, &se):
		status = se.Code
		if se.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(se.RetryAfter/time.Second)))
		}
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
