// Package romserver is the serving layer over the paper's compressed-ROM
// images: an in-memory registry of block-addressable images (SAMC, SADC,
// byte-Huffman, rANS — anything codecomp.UnmarshalAny accepts) that answers
// random-access block reads the way the Wolfe/Chanin refill engine does,
// but scaled for concurrent clients.
//
// Three mechanisms sit between a read and a decompression:
//
//   - every read goes through a sharded singleflight LRU cache
//     (internal/blockcache), so hot blocks decompress once;
//   - all decompression work runs on a bounded worker pool, so a burst of
//     cold reads cannot spawn unbounded concurrent decompressions;
//   - a demand miss speculatively warms the blocks the image's prefetch
//     policy predicts, on the same pool (best-effort: prefetches are
//     dropped, never queued, when the pool is saturated). Every image
//     starts on the sequential policy — warm i+1..i+k after missing i,
//     the paper's refill locality — and can be switched to a trained
//     markov or hotset policy (internal/policy) at runtime.
//
// The tracelab loop closes over three calls: every demand fetch is
// recorded into a per-image ring buffer (internal/traceprof); Train
// compiles the ring (or TrainFrom an offline trace) into an access-pattern
// profile; SetPolicy compiles the profile into the image's live policy,
// pinning a hotset policy's pin set into the cache's protected region.
//
// Close drains: queued work is finished, workers exit, and every API call
// afterwards reports ErrClosed.
package romserver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/blockcache"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/policy"
	"codecomp/internal/traceprof"
)

var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("romserver: server closed")
	// ErrNotFound is returned for reads of an unregistered image.
	ErrNotFound = errors.New("romserver: image not found")
	// ErrOutOfRange is returned for block indices outside an image.
	ErrOutOfRange = errors.New("romserver: block out of range")
	// ErrNoTrace is returned by Train when the image has no recorded
	// accesses yet.
	ErrNoTrace = errors.New("romserver: no recorded trace")
	// ErrNoProfile is returned by SetPolicy for a policy that needs
	// training (markov, hotset) before the image has been trained.
	ErrNoProfile = errors.New("romserver: image not trained")
	// ErrBadPolicy is returned by SetPolicy for an unknown policy name or
	// invalid policy parameters.
	ErrBadPolicy = errors.New("romserver: bad policy")
	// ErrCorruptBlock is returned when a decompressed block fails
	// verification against the integrity sidecar on every attempt. The
	// corrupt bytes are never served and never cached.
	ErrCorruptBlock = errors.New("romserver: corrupt block detected")
	// ErrQuarantined is returned for reads that would need a fresh
	// decompression of a quarantined image (cached blocks still serve).
	ErrQuarantined = errors.New("romserver: image quarantined")
	// ErrCodecPanic is a codec panic recovered into an error by the
	// hardened load path.
	ErrCodecPanic = errors.New("romserver: codec panicked")
	// ErrDecompressTimeout is one decompression attempt exceeding
	// Options.LoadTimeout.
	ErrDecompressTimeout = errors.New("romserver: decompression timed out")
)

// Options configures a Server. Zero values pick serving-friendly defaults.
type Options struct {
	// CacheBlocks is the total decompressed-block cache capacity
	// (default 4096 blocks).
	CacheBlocks int
	// CacheShards is the cache shard count (default 16).
	CacheShards int
	// Workers is the decompression pool size (default 8).
	Workers int
	// QueueDepth is the pending-task queue length (default 4×Workers).
	QueueDepth int
	// PrefetchDepth is how many sequential blocks a demand miss warms
	// (default 4; negative disables prefetching).
	PrefetchDepth int
	// TraceBuffer is the per-image access-trace ring size, in block
	// accesses (default 65536; negative disables recording).
	TraceBuffer int

	// LoadAttempts is how many times one block load is tried before the
	// read fails (default 3). Only transient errors and integrity
	// failures are retried; a timed-out decode ends its ticket.
	LoadAttempts int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt with full jitter (default 2ms).
	RetryBackoff time.Duration
	// LoadTimeout bounds one decompression attempt, and a pool ticket's
	// wait on another worker's decode of the same block, through the
	// worker's watchdog (default 5s; negative disables the deadline).
	LoadTimeout time.Duration
	// HealthWindow is the per-image sliding window of load outcomes that
	// drives the health state machine (default 64).
	HealthWindow int
	// ReverifyInterval is how often the background pass re-verifies
	// degraded/quarantined images (default 5s; negative disables it).
	ReverifyInterval time.Duration

	// Overload enables the overload layer — deadline-aware admission in
	// front of the pool queue, brownout degradation, retry budgets (see
	// internal/overload). Nil disables it entirely: requests queue and
	// retry exactly as before. With overload enabled the pool queue
	// becomes a bounded admission queue: a full queue rejects instead of
	// blocking the caller.
	Overload *overload.Config

	// Tiering configures the background recompressor that migrates tiered
	// images' blocks between codec tiers as their heat profiles shift (see
	// tiering.go). Nil disables the background pass; the synchronous
	// Recompress API and the tiering metrics work regardless.
	Tiering *TieringOptions

	// Registry receives the server's metrics (counters, gauges, latency
	// histograms). Nil creates a private registry, exposed via Registry().
	Registry *obsv.Registry
	// Tracer, when set, samples per-block-load request traces (queue
	// wait / decode / verify phases, retry and corruption events). Nil
	// disables tracing.
	Tracer *obsv.Tracer
}

func (o Options) withDefaults() Options {
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 4096
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.PrefetchDepth == 0 {
		o.PrefetchDepth = 4
	}
	if o.PrefetchDepth < 0 {
		o.PrefetchDepth = 0
	}
	if o.TraceBuffer == 0 {
		o.TraceBuffer = 65536
	}
	if o.TraceBuffer < 0 {
		o.TraceBuffer = 0
	}
	if o.LoadAttempts <= 0 {
		o.LoadAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.LoadTimeout == 0 {
		o.LoadTimeout = 5 * time.Second
	}
	if o.LoadTimeout < 0 {
		o.LoadTimeout = 0
	}
	if o.HealthWindow <= 0 {
		o.HealthWindow = 64
	}
	if o.ReverifyInterval == 0 {
		o.ReverifyInterval = 5 * time.Second
	}
	if o.ReverifyInterval < 0 {
		o.ReverifyInterval = 0
	}
	if o.Tiering != nil {
		t := o.Tiering.withDefaults()
		o.Tiering = &t
	}
	return o
}

// image is one registered compressed ROM plus its serving counters,
// tracelab state and faultlab state.
type image struct {
	name     string
	codec    codecomp.BlockCodec
	format   string
	blocks   int
	origSize int
	// id is this registration's cache key: a load in flight across a
	// replace/remove inserts under the old id and can never be served as
	// a block of the new registration.
	id uint32

	// tiered is the codec downcast to its mixed-codec form, set only for
	// tiered images.
	tiered *codecomp.TieredImage
	// tierMu serializes recompression passes over this image (migrations
	// themselves are internally locked; the mutex keeps one pass's
	// plan/migrate/persist sequence from interleaving with another's).
	tierMu sync.Mutex
	// tierPolicy overrides the server-wide tiering policy for this image;
	// nil falls back to Options.Tiering.Policy (or its defaults).
	tierPolicy atomic.Pointer[codecomp.TierPolicy]

	// sidecar is the per-block integrity ground truth (nil for test
	// codecs registered without verification).
	sidecar *sidecar
	// health is the image's sliding-window health state machine.
	health *imageHealth
	// faults, when set, interposes a fault injector before the codec.
	faults atomic.Pointer[faultinj.Injector]

	// recorder captures the demand block-access stream (nil when
	// recording is disabled).
	recorder *traceprof.Recorder
	// profile is the last trained access profile, nil before training.
	profile atomic.Pointer[traceprof.Profile]
	// pref is the active prefetch policy; nil disables prefetching.
	pref atomic.Pointer[prefState]
	// hot is the brownout hot set (per-block flags), computed from the
	// trained profile at Train/TrainFrom; nil before training.
	hot atomic.Pointer[[]bool]

	// offsets is the cumulative decompressed-offset table behind the
	// byte-granular read path: offsets[i] is block i's first absolute
	// byte, offsets[blocks] the decompressed total (blocks are not
	// uniform — SADC packs whole units, the last block runs short).
	// Built for free from the integrity sidecar at registration; images
	// registered without one (test codecs) build it lazily on first
	// ReadAt.
	offsets     []int64
	offsetsOnce sync.Once
	offsetsErr  error

	blockReads     atomic.Int64
	rangeReads     atomic.Int64
	subblockReads  atomic.Int64
	fullReads      atomic.Int64
	decompressions atomic.Int64
	// decompressNanos/decompressedBytes accumulate the time spent inside
	// (and bytes produced by) successful codec block decodes, for the
	// decode ns/block and MB/s gauges in /metrics.
	decompressNanos   atomic.Int64
	decompressedBytes atomic.Int64

	corruptBlocks   atomic.Int64
	retries         atomic.Int64
	panicsRecovered atomic.Int64
	timeouts        atomic.Int64
	loadFailures    atomic.Int64
	reverifies      atomic.Int64
}

// key is the image's cache key for one block.
func (img *image) key(b int) blockcache.Key {
	return blockcache.Key{Image: img.id, Block: uint32(b)}
}

// blockOffsets returns the image's cumulative offset table, building it
// lazily (one decode per block) for images registered without a sidecar.
func (img *image) blockOffsets() ([]int64, error) {
	img.offsetsOnce.Do(func() {
		if img.offsets != nil {
			return
		}
		offs := make([]int64, img.blocks+1)
		for i := 0; i < img.blocks; i++ {
			blk, err := img.codec.Block(i)
			if err != nil {
				img.offsetsErr = fmt.Errorf("romserver: offset table for %q: %w", img.name, err)
				return
			}
			offs[i+1] = offs[i] + int64(len(blk))
		}
		img.offsets = offs
	})
	return img.offsets, img.offsetsErr
}

// prefState is an image's active policy plus the pin set it holds in the
// cache's protected region.
type prefState struct {
	p    policy.Prefetcher
	name string
	pins []int
}

// task is one unit of pool work; reply is nil for prefetches. enq and
// span are set for demand fetches only: enq feeds the queue-wait
// histogram, span carries the sampled request trace across the pool.
// rng, when set, makes the task a batched range decode (block and reply
// are unused; the range job carries its own reply channel). ctx, when
// set, is the caller's request context: a ticket whose context has
// expired by the time a worker picks it up is retired without
// dispatching the decode. reverify marks a background re-verification:
// a verified decode of the local codec that bypasses the cache, the fill
// hook and quarantine.
type task struct {
	img      *image
	block    int
	reply    chan result
	enq      time.Time
	span     *obsv.Span
	rng      *rangeJob
	ctx      context.Context
	reverify bool
}

// fail answers the ticket with err; a prefetch has no one to answer.
func (t *task) fail(err error) {
	switch {
	case t.rng != nil:
		t.rng.reply <- rangeResult{err: err}
	case t.reply != nil:
		t.reply <- result{err: err}
	}
}

type result struct {
	data []byte
	hit  bool
	err  error
}

// rangeJob is one contiguous miss-run of a batched range read: a single
// pool ticket that decodes blocks [first,last] back to back and caches
// them. limit > 0 marks a sub-block read: block last only needs its
// first limit bytes, decoded via the partial path and never cached.
// merged marks a run that spans blocks cached at dispatch (a /text
// window), which the worker re-peeks instead of decoding.
type rangeJob struct {
	first, last int
	limit       int
	merged      bool
	reply       chan rangeResult
}

type rangeResult struct {
	blocks  [][]byte
	decoded int
	// decodedBytes is total codec output paid for: full blocks plus any
	// partial tail prefix.
	decodedBytes int
	err          error
}

// FillFunc is an alternative block source consulted on a cache miss
// before local decompression — the cluster layer installs one that asks
// replica nodes' hot caches (peer cache-fill). The returned bytes are
// verified against the integrity sidecar exactly like a decompression:
// a corrupt fill is rejected, counted, and the load falls through to the
// local codec, so a misbehaving peer can never be served.
type FillFunc func(image string, block int) ([]byte, bool)

// Server is the concurrent compressed-ROM block service.
type Server struct {
	opts  Options
	cache *blockcache.Cache

	// fill, when set, is consulted on every miss before decompressing
	// locally (see FillFunc). Atomic so it can be installed after New.
	fill atomic.Pointer[FillFunc]

	mu     sync.RWMutex
	images map[string]*image
	closed bool

	// policyMu serializes SetPolicy's unpin/pin transitions.
	policyMu sync.Mutex

	tasks   chan task
	quit    chan struct{} // closed first: stop accepting work
	drained chan struct{} // closed after the pool has fully drained
	wg      sync.WaitGroup

	// nextID hands out cache-key ids to registrations.
	nextID atomic.Uint32

	// ovl is the overload layer (admission, brownout, retry budget);
	// nil when Options.Overload is unset.
	ovl *overloadState
	// inflight counts worker-pool tasks currently executing, behind the
	// romserver_inflight_decodes gauge.
	inflight atomic.Int64

	// met holds every server-lifetime instrument (prefetch and faultlab
	// rollups, latency histograms); Stats() reads the counters back, so
	// /metrics and the JSON stats can never disagree.
	met *serverMetrics
}

// New starts a server and its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	s := &Server{
		opts:    opts,
		cache:   blockcache.New(opts.CacheBlocks, opts.CacheShards),
		images:  make(map[string]*image),
		tasks:   make(chan task, opts.QueueDepth),
		quit:    make(chan struct{}),
		drained: make(chan struct{}),
		met:     newServerMetrics(reg, opts.Tracer),
	}
	if opts.Overload != nil {
		s.ovl = newOverloadState(*opts.Overload, opts.Workers, s.met)
	}
	s.registerServerGauges()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		s.startWorker()
	}
	if opts.ReverifyInterval > 0 {
		s.wg.Add(1)
		go s.reverifier(opts.ReverifyInterval)
	}
	if opts.Tiering != nil && opts.Tiering.Interval > 0 {
		s.wg.Add(1)
		go s.recompressor(opts.Tiering.Interval)
	}
	if s.ovl != nil {
		// The evaluator must tick independently of traffic: brownout
		// recovery happens precisely when requests stop arriving.
		s.wg.Add(1)
		go s.overloadEvaluator(s.ovl.cfg.EvalInterval)
	}
	return s
}

// Close stops the server: no new work is accepted, queued and in-flight
// decompressions finish, then the pool exits. A wedged decode delays it
// at most until its watchdog retires the worker. Safe to call more than
// once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.drained
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	close(s.drained)
	return nil
}

// loader is a pooled binding of (worker, image, block) to the hardened
// load path. The bound fn is created once per pooled object, so handing a
// loader to the cache does not allocate a closure per cache miss.
type loader struct {
	w     *poolWorker
	img   *image
	block int
	span  *obsv.Span
	ctx   context.Context
	// start is the ticket's clock reading, which the load's first
	// decode attempt starts at.
	start time.Time
	fn    func() ([]byte, error)
}

var loaderPool = sync.Pool{New: func() any {
	l := &loader{}
	l.fn = l.load
	return l
}}

func (l *loader) load() ([]byte, error) {
	// Quarantined images refuse fresh decompressions; their cached
	// (verified) blocks above this loader keep serving.
	if l.img.health.State() == Quarantined {
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, l.img.name)
	}
	data, _, err := l.w.loadVerified(l.ctx, l.img, l.block, l.span, true, l.start)
	return data, err
}

func (l *loader) release() {
	l.w, l.img, l.span, l.ctx = nil, nil, nil, nil
	loaderPool.Put(l)
}

// handle serves one ticket. It returns false when the watchdog retired
// this goroutine while it served the ticket.
func (w *poolWorker) handle(t task) bool {
	s := w.s
	// The ticket's one clock reading serves the queue wait, the
	// watchdog and the start of its first block load.
	now := time.Now()
	timeout, err := s.effectiveTimeout(t.ctx, now)
	if err != nil {
		// The caller gave up while the ticket was queued: retire it
		// without dispatching the decode. The caller ends the span.
		s.met.queueExpired.Inc()
		t.fail(err)
		return true
	}
	w.begin(t, timeout, now)
	if t.rng != nil {
		return w.handleRange(t, now)
	}
	if t.reverify {
		_, _, err := w.loadVerified(nil, t.img, t.block, nil, false, now)
		if !w.end() {
			return false
		}
		t.reply <- result{err: err}
		return true
	}
	key := t.img.key(t.block)
	l := loaderPool.Get().(*loader)
	l.w, l.img, l.block, l.span, l.ctx, l.start = w, t.img, t.block, t.span, t.ctx, now
	if t.reply == nil {
		// Speculative warm: tag the load so a later demand hit counts
		// toward prefetch accuracy.
		_, _, err := s.cache.GetPrefetch(key, l.fn)
		l.release()
		if !w.end() {
			return false
		}
		if err == nil {
			s.met.prefetchCompleted.Inc()
		}
		return true
	}
	wait := now.Sub(t.enq)
	s.met.queueWait.Observe(wait)
	t.span.Phase("queue_wait", wait)
	data, hit, err := s.cache.Get(key, l.fn)
	l.release()
	if !w.end() {
		return false
	}
	if s.ovl != nil {
		s.ovl.adm.ObserveWait(wait)
		s.ovl.adm.ObserveService(time.Since(now))
	}
	if hit {
		t.span.Event("cache hit")
	}
	t.reply <- result{data: data, hit: hit, err: err}
	if err == nil && !hit {
		if s.ovl != nil && s.ovl.ctl.Level() != overload.Healthy {
			// Under pressure, speculative warms are the first work shed.
			s.met.prefetchSuppressed.Inc()
			return true
		}
		s.prefetch(t.img, t.block)
	}
	return true
}

// handleRange runs one contiguous miss-run on a single pool ticket. Each
// block is decoded through the same hardened loadVerified path demand
// reads use. A merged run first re-checks each block with Peek, since it
// spans blocks that were cached at dispatch. An unmerged run was all-miss
// at dispatch and decodes straight through: another read rarely fills
// one of its blocks before the worker reaches it, and such a block is
// decoded again and replaced with identical bytes, which costs less in
// total than a shard lock per block. The blocks the run verified are
// inserted after its decode loop with the cache's neutral Put, so the
// run populates the cache for later demand traffic without counting as
// demand misses or touching prefetch accounting. Peeked blocks and a
// partial tail are not inserted. now is the ticket's clock reading,
// which the run's first load starts at; each later load starts at the
// reading that ended the previous block's verify (or a fresh one after a
// peeked block), so a run reads the clock twice per block.
func (w *poolWorker) handleRange(t task, now time.Time) bool {
	s, rj, img := w.s, t.rng, t.img
	s.met.queueWait.Observe(now.Sub(t.enq))
	blocks := make([][]byte, 0, rj.last-rj.first+1)
	fresh := w.fresh[:0]
	decoded, decodedBytes := 0, 0
	stale := false
	var err error
	for b := rj.first; b <= rj.last; b++ {
		if rj.merged {
			if data, ok := s.cache.Peek(img.key(b)); ok {
				blocks = append(blocks, data)
				stale = true
				continue
			}
			if stale {
				now, stale = time.Now(), false
			}
		}
		var (
			data []byte
			n    int
		)
		switch {
		case img.health.State() == Quarantined:
			err = fmt.Errorf("%w: %q", ErrQuarantined, img.name)
		case rj.limit > 0 && b == rj.last:
			// Sub-block tail: decode only the needed prefix; the result
			// cannot be sidecar-verified, so it is served but not cached.
			data, n, err = w.decodePrefix(t.ctx, img, b, rj.limit, now)
		default:
			data, now, err = w.loadVerified(t.ctx, img, b, nil, true, now)
			n = len(data)
			if err == nil {
				fresh = append(fresh, len(blocks))
			}
		}
		if err != nil {
			break
		}
		decoded++
		decodedBytes += n
		blocks = append(blocks, data)
	}
	for _, i := range fresh {
		s.cache.Put(img.key(rj.first+i), blocks[i])
	}
	w.fresh = fresh
	if !w.end() {
		return false
	}
	if err != nil {
		rj.reply <- rangeResult{err: err}
		return true
	}
	rj.reply <- rangeResult{blocks: blocks, decoded: decoded, decodedBytes: decodedBytes}
	return true
}

// prefetch best-effort enqueues warms for the blocks the image's policy
// predicts after a demand miss. It must never block: workers call it, and
// a blocking send from a worker into its own pool deadlocks under load.
func (s *Server) prefetch(img *image, miss int) {
	ref := img.pref.Load()
	if ref == nil {
		return
	}
	for _, b := range ref.p.Predict(miss) {
		if b < 0 || b >= img.blocks {
			continue
		}
		if s.cache.Contains(img.key(b)) {
			continue
		}
		select {
		case s.tasks <- task{img: img, block: b}:
			s.met.prefetchIssued.Inc()
		case <-s.quit:
			return
		default:
			s.met.prefetchDropped.Inc()
		}
	}
}

// replyPool recycles the one-shot reply channels of demand fetches; a
// buffered channel is reusable once its result has been received.
var replyPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// fetchCtx serves one demand read. Demand fetches are the access stream
// the trace recorder captures. A cached block is answered on the calling
// goroutine, the way an I-cache hit never reaches the refill engine: a
// hit is not an admitted request, so it takes no queue slot, funds no
// retry budget, reports no goodput outcome and feeds neither wait
// estimate. A miss runs through the pool under the caller's request
// context: the overload layer's gates run before the enqueue, an expired
// context cancels still-queued work, and the context's deadline clamps
// the per-decode deadline inside the hardened load path. A block filled
// between this look and the worker's is served (and counted) as a hit by
// the worker's Get, so no demand read is counted twice.
func (s *Server) fetchCtx(ctx context.Context, img *image, block int) ([]byte, bool, error) {
	if img.recorder != nil {
		img.recorder.Record(block)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if data, ok := s.cache.GetCached(img.key(block)); ok {
		if sp := s.met.tracer.Begin("block_load"); sp != nil {
			sp.Eventf("img=%s block=%d", img.name, block)
			sp.Event("cache hit")
			sp.End(nil)
		}
		return data, true, nil
	}
	if s.ovl != nil {
		if err := s.admit(ctx, img, []missRun{{block, block}}); err != nil {
			return nil, false, err
		}
	}
	sp := s.met.tracer.Begin("block_load")
	if sp != nil {
		// Formatting only runs for sampled requests; unsampled ones carry
		// a nil span all the way through for free.
		sp.Eventf("img=%s block=%d", img.name, block)
	}
	reply := replyPool.Get().(chan result)
	t := task{img: img, block: block, reply: reply, enq: time.Now(), span: sp, ctx: ctx}
	if err := s.enqueue(ctx, t); err != nil {
		replyPool.Put(reply)
		sp.End(err)
		return nil, false, err
	}
	data, hit, err := s.awaitFetch(ctx, reply, sp)
	if s.ovl != nil && !errors.Is(err, ErrClosed) {
		s.ovl.ctl.ReportOutcome(err == nil)
	}
	return data, hit, err
}

// enqueue hands a read's ticket to the pool. With the overload layer on
// the queue is a bounded admission queue: a full one rejects instead of
// blocking the caller. Otherwise the send waits for room, the caller's
// context or shutdown.
func (s *Server) enqueue(ctx context.Context, t task) error {
	if s.ovl != nil {
		select {
		case s.tasks <- t:
			return nil
		case <-s.quit:
			return ErrClosed
		default:
			s.met.admissionQueueFull.Inc()
			return &overload.RejectError{
				Reason:     overload.ReasonQueueFull,
				RetryAfter: retryAfter(s.ovl.adm.EstimateWait(len(s.tasks))),
			}
		}
	}
	select {
	case s.tasks <- t:
		return nil
	case <-doneOf(ctx):
		return ctx.Err()
	case <-s.quit:
		return ErrClosed
	}
}

// doneOf is ctx.Done(), or nil (never ready) for a nil context.
func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// awaitFetch waits for a dispatched demand ticket. An expired caller
// context abandons the (buffered) reply channel — the queued ticket's
// own ctx check retires it without a decode — so the caller unblocks at
// its deadline instead of waiting out the queue.
func (s *Server) awaitFetch(ctx context.Context, reply chan result, sp *obsv.Span) ([]byte, bool, error) {
	select {
	case r := <-reply:
		replyPool.Put(reply)
		sp.End(r.err)
		return r.data, r.hit, r.err
	case <-doneOf(ctx):
		sp.End(ctx.Err())
		return nil, false, ctx.Err()
	case <-s.drained:
		// Shutdown raced our enqueue; the drain loop may still have served
		// the task, so check once more before giving up.
		select {
		case r := <-reply:
			replyPool.Put(reply)
			sp.End(r.err)
			return r.data, r.hit, r.err
		default:
			// The queued task may still send later; abandon the channel
			// (it is buffered) instead of recycling it.
			sp.End(ErrClosed)
			return nil, false, ErrClosed
		}
	}
}

// ImageInfo describes a registered image.
type ImageInfo struct {
	Name           string  `json:"name"`
	Format         string  `json:"format"`
	Blocks         int     `json:"blocks"`
	OrigSize       int     `json:"orig_size"`
	CompressedSize int     `json:"compressed_size"`
	Ratio          float64 `json:"ratio"`
	// Health is the image's current health state ("healthy", "degraded"
	// or "quarantined").
	Health string `json:"health"`
}

func (img *image) info() ImageInfo {
	return ImageInfo{
		Name:           img.name,
		Format:         img.format,
		Blocks:         img.blocks,
		OrigSize:       img.origSize,
		CompressedSize: img.codec.CompressedSize(),
		Ratio:          img.codec.Ratio(),
		Health:         img.health.State().String(),
	}
}

// imageMeta pulls block-size/original-size metadata off the concrete image
// types (the BlockCodec interface intentionally stays minimal).
func imageMeta(c codecomp.BlockCodec) (origSize int) {
	switch v := c.(type) {
	case *codecomp.SAMCImage:
		return v.OrigSize
	case *codecomp.SADCImage:
		return v.OrigSize
	case *codecomp.HuffmanImage:
		return v.OrigSize
	case *codecomp.RANSImage:
		return v.OrigSize
	case *codecomp.TieredImage:
		return v.OrigSize()
	}
	return 0
}

// AddImage registers a marshaled image under name, auto-detecting its
// format by magic. Registration decompresses every block once to build
// the integrity sidecar (per-block CRC32-C + length) that all later
// worker decompressions are verified against — an image whose blocks do
// not decompress cleanly is rejected here instead of failing in a
// worker. Re-registering a name replaces the image and drops its cached
// blocks.
func (s *Server) AddImage(name string, data []byte) (ImageInfo, error) {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return ImageInfo{}, fmt.Errorf("romserver: invalid image name %q", name)
	}
	codec, err := codecomp.UnmarshalAny(data)
	if err != nil {
		return ImageInfo{}, err
	}
	sc, err := buildSidecar(codec)
	if err != nil {
		return ImageInfo{}, fmt.Errorf("romserver: image %q rejected at registration: %w", name, err)
	}
	img := s.newImage(name, codec, codecomp.DetectFormat(data))
	img.sidecar = sc
	img.offsets = sc.blockOffsets()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ImageInfo{}, ErrClosed
	}
	old, replaced := s.images[name]
	s.images[name] = img
	s.mu.Unlock()
	if replaced {
		s.cache.InvalidateImage(old.id)
	}
	if img.tiered != nil {
		s.updateTierGauges()
	}
	return img.info(), nil
}

// RemoveImage deregisters an image and drops its cached blocks.
func (s *Server) RemoveImage(name string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	img, ok := s.images[name]
	delete(s.images, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.cache.InvalidateImage(img.id)
	if img.tiered != nil {
		s.updateTierGauges()
	}
	return nil
}

func (s *Server) lookup(name string) (*image, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	img, ok := s.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return img, nil
}

// Image returns metadata for one registered image.
func (s *Server) Image(name string) (ImageInfo, error) {
	img, err := s.lookup(name)
	if err != nil {
		return ImageInfo{}, err
	}
	return img.info(), nil
}

// Images lists all registered images, sorted by name.
func (s *Server) Images() []ImageInfo {
	s.mu.RLock()
	out := make([]ImageInfo, 0, len(s.images))
	for _, img := range s.images {
		out = append(out, img.info())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Block returns the decompressed bytes of one cache block. The bool reports
// whether the read was a cache hit.
func (s *Server) Block(name string, i int) ([]byte, bool, error) {
	return s.BlockContext(context.Background(), name, i)
}

// BlockContext is Block under the caller's request context. A cached
// block is answered on the calling goroutine at every overload level.
// For a miss, the context's deadline drives admission control (a read
// whose estimated queue wait would blow the deadline is rejected with
// *overload.RejectError before queueing), cancels the ticket if it is
// still queued when the context expires, and clamps the per-decode
// deadline. A nil or background context behaves exactly like Block.
func (s *Server) BlockContext(ctx context.Context, name string, i int) ([]byte, bool, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, false, err
	}
	if i < 0 || i >= img.blocks {
		return nil, false, fmt.Errorf("%w: %d of %q [0,%d)", ErrOutOfRange, i, name, img.blocks)
	}
	img.blockReads.Add(1)
	return s.fetchCtx(ctx, img, i)
}

// SetFillHook installs (or, with nil, removes) the alternative block
// source consulted on cache misses before local decompression. The
// cluster layer points it at replica nodes' hot caches; see FillFunc for
// the verification contract.
func (s *Server) SetFillHook(f FillFunc) {
	if f == nil {
		s.fill.Store(nil)
		return
	}
	s.fill.Store(&f)
}

// CachedBlock returns the block's decompressed bytes only if they are in
// the cache right now — it never decompresses, never touches LRU order
// and never counts toward the demand hit/miss accounting. This is the
// node-side answer to a peer's cache-fill probe: cheap to ask, and a miss
// costs the asker nothing but the round trip.
func (s *Server) CachedBlock(name string, i int) ([]byte, bool, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, false, err
	}
	if i < 0 || i >= img.blocks {
		return nil, false, fmt.Errorf("%w: %d of %q [0,%d)", ErrOutOfRange, i, name, img.blocks)
	}
	data, ok := s.cache.Peek(img.key(i))
	return data, ok, nil
}

// RangeStats reports how a batched range read was served: how many of its
// blocks came straight from the cache, how many worker-pool tickets the
// miss-runs took, and how many blocks those tickets decoded. Dispatches is
// at most the number of contiguous miss-runs — always ≤ Blocks, and far
// below it on warm or sequential traffic, which is the batched path's
// whole point versus per-block reads.
type RangeStats struct {
	Blocks        int `json:"blocks"`
	CachedBlocks  int `json:"cached_blocks"`
	Dispatches    int `json:"dispatches"`
	DecodedBlocks int `json:"decoded_blocks"`
}

// awaitRange waits for one range dispatch, tolerating the same
// enqueue/shutdown race awaitFetch does: drain may close while the drain loop
// is still serving our queued job, so check the reply once more. An
// expired caller context (nil for none) abandons the buffered reply; a
// still-queued ticket is then retired at dequeue undecoded.
func awaitRange(ctx context.Context, reply chan rangeResult, drained chan struct{}) (rangeResult, error) {
	select {
	case rr := <-reply:
		return rr, rr.err
	case <-doneOf(ctx):
		return rangeResult{}, ctx.Err()
	case <-drained:
		select {
		case rr := <-reply:
			return rr, rr.err
		default:
			return rangeResult{}, ErrClosed
		}
	}
}

// TraceSnapshot returns the image's recorded demand-access trace, oldest
// first (empty when recording is disabled or nothing was fetched yet).
func (s *Server) TraceSnapshot(name string) (*traceprof.Trace, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	t := &traceprof.Trace{Image: name, Blocks: img.blocks}
	if img.recorder != nil {
		t.Accesses = img.recorder.Snapshot()
	}
	return t, nil
}

// Train compiles the image's recorded access trace into a profile and
// stores it for SetPolicy. ErrNoTrace when nothing has been recorded.
func (s *Server) Train(name string) (*traceprof.Profile, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if img.recorder == nil || img.recorder.Len() == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoTrace, name)
	}
	p := traceprof.BuildProfile(img.recorder.Snapshot(), img.blocks)
	img.profile.Store(p)
	s.setHotSet(img, p)
	return p, nil
}

// TrainFrom trains the image from an externally supplied access trace
// (e.g. a loadgen -tracefile replayed offline) instead of the live ring.
func (s *Server) TrainFrom(name string, accesses []int) (*traceprof.Profile, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if len(accesses) == 0 {
		return nil, fmt.Errorf("%w: %q (empty trace)", ErrNoTrace, name)
	}
	p := traceprof.BuildProfile(accesses, img.blocks)
	img.profile.Store(p)
	s.setHotSet(img, p)
	return p, nil
}

// Profile returns the image's trained profile, or ErrNoProfile.
func (s *Server) Profile(name string) (*traceprof.Profile, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	p := img.profile.Load()
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoProfile, name)
	}
	return p, nil
}

// PolicySpec selects a prefetch policy for one image. Zero fields take the
// server defaults.
type PolicySpec struct {
	// Policy is "sequential", "markov" or "hotset".
	Policy string `json:"policy"`
	// Depth is the sequential/fallback/chain prefetch depth (default:
	// Options.PrefetchDepth).
	Depth int `json:"depth"`
	// TopK is how many Markov successors each miss warms (default 2).
	TopK int `json:"top_k"`
	// PinCount is how many hot blocks hotset pins (default: a quarter of
	// the cache; always clamped to half the cache so demand traffic keeps
	// room).
	PinCount int `json:"pin_count"`
}

// PolicyInfo describes an image's active policy.
type PolicyInfo struct {
	Image  string `json:"image"`
	Policy string `json:"policy"`
	// Pinned is how many blocks the policy holds in the protected region.
	Pinned int `json:"pinned"`
}

// SetPolicy switches the image's prefetch policy. markov and hotset
// require a prior Train/TrainFrom. A hotset policy's pin set is
// decompressed and pinned here, before the first request sees the policy;
// the previous policy's pins are released.
func (s *Server) SetPolicy(name string, spec PolicySpec) (PolicyInfo, error) {
	img, err := s.lookup(name)
	if err != nil {
		return PolicyInfo{}, err
	}
	depth := spec.Depth
	if depth <= 0 {
		depth = s.opts.PrefetchDepth
		if depth <= 0 {
			depth = 4
		}
	}
	pinCount := spec.PinCount
	if pinCount <= 0 {
		pinCount = s.cache.Capacity() / 4
	}
	if max := s.cache.Capacity() / 2; pinCount > max {
		pinCount = max
	}
	prof := img.profile.Load()
	p, err := policy.New(spec.Policy, policy.Config{
		Blocks:   img.blocks,
		Depth:    depth,
		TopK:     spec.TopK,
		PinCount: pinCount,
		Profile:  prof,
	})
	if err != nil {
		if prof == nil && (spec.Policy == "markov" || spec.Policy == "hotset") {
			return PolicyInfo{}, fmt.Errorf("%w: %q (%s policy needs training)", ErrNoProfile, name, spec.Policy)
		}
		return PolicyInfo{}, fmt.Errorf("%w: %v", ErrBadPolicy, err)
	}

	st := &prefState{p: p, name: p.Name()}
	if pinner, ok := p.(policy.Pinner); ok {
		st.pins = pinner.Pinned()
	}
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	s.cache.UnpinImage(img.id)
	// Decode and pin the hot set on the pool (it bypasses the trace
	// recorder on purpose: pinning is an admin-time operation).
	var pinned []int
	for _, b := range st.pins {
		if b < 0 || b >= img.blocks {
			continue
		}
		if err := s.warmBlock(img, b); err != nil {
			s.cache.UnpinImage(img.id)
			return PolicyInfo{}, fmt.Errorf("romserver: pinning block %d of %q: %w", b, name, err)
		}
		if s.cache.Pin(img.key(b)) {
			pinned = append(pinned, b)
		}
	}
	// img was looked up before policyMu was taken. If a replace or remove
	// has deregistered it since, its invalidation may have run before
	// these pins, which would then hold cache slots under a dead id for
	// good; drop them here. If img is still registered, a later
	// deregistration invalidates after this check, and so after the pins.
	s.mu.RLock()
	cur := s.images[name]
	s.mu.RUnlock()
	if cur != img {
		s.cache.InvalidateImage(img.id)
	}
	st.pins = pinned
	img.pref.Store(st)
	return PolicyInfo{Image: name, Policy: st.name, Pinned: len(pinned)}, nil
}

// warmBlock loads block b of img into the cache as a one-block range
// ticket — verified and under the pool's watchdog — and waits for it. A
// block already cached needs no ticket.
func (s *Server) warmBlock(img *image, b int) error {
	if s.cache.Contains(img.key(b)) {
		return nil
	}
	reply := make(chan rangeResult, 1)
	t := task{img: img, enq: time.Now(), rng: &rangeJob{first: b, last: b, reply: reply}}
	select {
	case s.tasks <- t:
	case <-s.quit:
		return ErrClosed
	}
	_, err := awaitRange(nil, reply, s.drained)
	return err
}

// Policy reports the image's active policy.
func (s *Server) Policy(name string) (PolicyInfo, error) {
	img, err := s.lookup(name)
	if err != nil {
		return PolicyInfo{}, err
	}
	return img.policyInfo(), nil
}

func (img *image) policyInfo() PolicyInfo {
	info := PolicyInfo{Image: img.name, Policy: "none"}
	if ref := img.pref.Load(); ref != nil {
		info.Policy = ref.name
		info.Pinned = len(ref.pins)
	}
	return info
}

// PrefetchStats counts the speculative warms behind demand misses.
type PrefetchStats struct {
	// Issued counts prefetch tasks enqueued onto the pool.
	Issued int64 `json:"issued"`
	// Dropped counts prefetches skipped because the pool was saturated.
	Dropped int64 `json:"dropped"`
	// Completed counts prefetched blocks that landed in the cache.
	Completed int64 `json:"completed"`
	// Hits counts demand hits on prefetch-warmed blocks — the prefetches
	// that paid off.
	Hits int64 `json:"hits"`
	// Wasted counts prefetched blocks evicted before any demand hit.
	Wasted int64 `json:"wasted"`
}

// Accuracy is Hits over Completed: the fraction of finished prefetches a
// demand read actually consumed (so far).
func (p PrefetchStats) Accuracy() float64 {
	if p.Completed == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Completed)
}

// ImageStats is per-image serving counters plus the image metadata.
type ImageStats struct {
	ImageInfo
	// BlockReads, RangeReads and FullReads count API-level requests.
	BlockReads    int64 `json:"block_reads"`
	RangeReads    int64 `json:"range_reads"`
	FullReads     int64 `json:"full_reads"`
	SubblockReads int64 `json:"subblock_reads"`
	// Decompressions counts actual codec.Block invocations — the work the
	// cache and singleflight exist to avoid.
	Decompressions int64 `json:"decompressions"`
	// DecodeNsPerBlock is the mean wall-clock nanoseconds one block decode
	// took (demand, prefetch, pinning and re-verify loads alike).
	DecodeNsPerBlock float64 `json:"decode_ns_per_block"`
	// DecodeMBPerSec is the mean decode throughput in decompressed
	// megabytes per second.
	DecodeMBPerSec float64 `json:"decode_mb_per_sec"`
	// Policy is the active prefetch policy name ("none" when disabled).
	Policy string `json:"policy"`
	// Pinned is how many blocks the policy pinned.
	Pinned int `json:"pinned"`
	// Trained reports whether the image has a trained profile.
	Trained bool `json:"trained"`
	// TraceLen is how many accesses the trace ring currently holds.
	TraceLen int `json:"trace_len"`

	// CorruptBlocks counts decompressions rejected by the integrity
	// sidecar (detected, never served, never cached).
	CorruptBlocks int64 `json:"corrupt_blocks"`
	// Retries counts extra load attempts after a retryable failure.
	Retries int64 `json:"retries"`
	// PanicsRecovered counts codec panics contained by the load path.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Timeouts counts load attempts that hit the decompression deadline.
	Timeouts int64 `json:"timeouts"`
	// LoadFailures counts loads that failed after all attempts.
	LoadFailures int64 `json:"load_failures"`
	// Reverifies counts background re-verification loads of this image.
	Reverifies int64 `json:"reverifies"`
	// BadBlocks is how many blocks are currently on the bad list.
	BadBlocks int `json:"bad_blocks"`
	// FailureRate is the failing fraction of the health outcome window.
	FailureRate float64 `json:"failure_rate"`
	// HealthTransitions counts this image's health state changes.
	HealthTransitions int64 `json:"health_transitions"`
	// Faults reports injected-fault counters when a fault injector is
	// installed (chaos mode); omitted otherwise.
	Faults *faultinj.Stats `json:"faults,omitempty"`
}

// FaultStatsRollup is the server-lifetime faultlab counters (they survive
// image removal, unlike the per-image copies).
type FaultStatsRollup struct {
	CorruptBlocks     int64 `json:"corrupt_blocks"`
	Retries           int64 `json:"retries"`
	PanicsRecovered   int64 `json:"panics_recovered"`
	Timeouts          int64 `json:"timeouts"`
	LoadFailures      int64 `json:"load_failures"`
	Reverifies        int64 `json:"reverifies"`
	HealthTransitions int64 `json:"health_transitions"`
}

// Stats is a snapshot of the whole serving layer.
// SubblockStats rolls up the byte-granular sub-block read path: how many
// ReadAt requests ran, how many decompressed bytes they returned, and how
// much tail-block work the partial decoder did (and therefore skipped —
// PartialDecodedBytes counts codec output actually produced; the remainder
// of each tail block was never decoded at all).
type SubblockStats struct {
	Reads               int64 `json:"reads"`
	Bytes               int64 `json:"bytes"`
	PartialDecodes      int64 `json:"partial_decodes"`
	PartialDecodedBytes int64 `json:"partial_decoded_bytes"`
}

type Stats struct {
	Cache         blockcache.Stats `json:"cache"`
	CacheHitRatio float64          `json:"cache_hit_ratio"`
	Prefetch      PrefetchStats    `json:"prefetch"`
	Faults        FaultStatsRollup `json:"faults"`
	// Subblock rolls up the byte-granular read path.
	Subblock SubblockStats `json:"subblock"`
	// Overload is the overload layer's snapshot, nil when disabled.
	Overload *OverloadStats `json:"overload,omitempty"`
	// Ready is false while any image is quarantined (the readiness
	// signal behind /readyz).
	Ready  bool         `json:"ready"`
	Images []ImageStats `json:"images"`
}

// Stats snapshots cache, prefetch, faultlab and per-image counters.
func (s *Server) Stats() Stats {
	cs := s.cache.Stats()
	st := Stats{
		Cache:         cs,
		CacheHitRatio: cs.HitRatio(),
		Prefetch: PrefetchStats{
			Issued:    s.met.prefetchIssued.Value(),
			Dropped:   s.met.prefetchDropped.Value(),
			Completed: s.met.prefetchCompleted.Value(),
			Hits:      cs.PrefetchHits,
			Wasted:    cs.PrefetchEvicted,
		},
		Faults: FaultStatsRollup{
			CorruptBlocks:     s.met.corruptBlocks.Value(),
			Retries:           s.met.retries.Value(),
			PanicsRecovered:   s.met.codecPanics.Value(),
			Timeouts:          s.met.decodeTimeouts.Value(),
			LoadFailures:      s.met.loadFailures.Value(),
			Reverifies:        s.met.reverifies.Value(),
			HealthTransitions: s.met.healthTransitions.Value(),
		},
		Subblock: SubblockStats{
			Reads:               s.met.subblockReads.Value(),
			Bytes:               s.met.subblockBytes.Value(),
			PartialDecodes:      s.met.partialDecodes.Value(),
			PartialDecodedBytes: s.met.partialDecodedBytes.Value(),
		},
		Overload: s.overloadStats(),
		Ready:    true,
	}
	s.mu.RLock()
	for _, img := range s.images {
		is := ImageStats{
			ImageInfo:       img.info(),
			BlockReads:      img.blockReads.Load(),
			RangeReads:      img.rangeReads.Load(),
			FullReads:       img.fullReads.Load(),
			SubblockReads:   img.subblockReads.Load(),
			Decompressions:  img.decompressions.Load(),
			Trained:         img.profile.Load() != nil,
			CorruptBlocks:   img.corruptBlocks.Load(),
			Retries:         img.retries.Load(),
			PanicsRecovered: img.panicsRecovered.Load(),
			Timeouts:        img.timeouts.Load(),
			LoadFailures:    img.loadFailures.Load(),
			Reverifies:      img.reverifies.Load(),
		}
		if decs, ns := img.decompressions.Load(), img.decompressNanos.Load(); decs > 0 && ns > 0 {
			is.DecodeNsPerBlock = float64(ns) / float64(decs)
			is.DecodeMBPerSec = float64(img.decompressedBytes.Load()) / 1e6 / (float64(ns) / 1e9)
		}
		state, bad, rate, transitions := img.health.snapshot()
		is.Health = state.String()
		is.BadBlocks, is.FailureRate, is.HealthTransitions = bad, rate, transitions
		if state == Quarantined {
			st.Ready = false
		}
		if f := img.faults.Load(); f != nil {
			fs := f.Stats()
			is.Faults = &fs
		}
		pi := img.policyInfo()
		is.Policy, is.Pinned = pi.Policy, pi.Pinned
		if img.recorder != nil {
			is.TraceLen = img.recorder.Len()
		}
		st.Images = append(st.Images, is)
	}
	s.mu.RUnlock()
	sort.Slice(st.Images, func(i, j int) bool { return st.Images[i].Name < st.Images[j].Name })
	return st
}

// CacheStats returns just the block cache counters.
func (s *Server) CacheStats() blockcache.Stats { return s.cache.Stats() }

// newImage builds the serving state for one codec: trace recorder sized by
// Options.TraceBuffer, the default sequential prefetch policy, a fresh
// cache-key id and a fresh health state machine.
func (s *Server) newImage(name string, codec codecomp.BlockCodec, format string) *image {
	img := &image{
		name:     name,
		codec:    codec,
		format:   format,
		blocks:   codec.NumBlocks(),
		origSize: imageMeta(codec),
		id:       s.nextID.Add(1),
		health:   newImageHealth(s.opts.HealthWindow),
	}
	if t, ok := codec.(*codecomp.TieredImage); ok {
		img.tiered = t
	}
	if s.opts.TraceBuffer > 0 {
		img.recorder = traceprof.NewRecorder(s.opts.TraceBuffer)
	}
	if s.opts.PrefetchDepth > 0 {
		img.pref.Store(&prefState{
			p:    policy.NewSequential(s.opts.PrefetchDepth, img.blocks),
			name: "sequential",
		})
	}
	return img
}

// addCodec registers an already-built codec directly; tests use it to
// instrument decompression with stub codecs.
func (s *Server) addCodec(name string, codec codecomp.BlockCodec, format string) *image {
	img := s.newImage(name, codec, format)
	s.mu.Lock()
	s.images[name] = img
	s.mu.Unlock()
	return img
}
