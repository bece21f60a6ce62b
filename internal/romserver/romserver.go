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
//     markov policy (internal/policy) at runtime.
//
// The tracelab loop closes over three calls: every demand fetch is
// recorded into a per-image ring buffer (internal/traceprof); Train
// compiles the ring (or TrainFrom an offline trace) into an access-pattern
// profile; SetPolicy compiles the profile into the image's live policy.
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
	// training (markov) before the image has been trained.
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
	// LoadTimeout bounds one decompression attempt, and a pool ticket's
	// wait on another worker's decode of the same block, through the
	// worker's watchdog (default 5s; negative disables the deadline).
	LoadTimeout time.Duration
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

	// noEvaluator keeps the overload evaluator from ticking, so the
	// brownout level moves only when a test calls Evaluate itself.
	noEvaluator bool
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
	if o.LoadTimeout == 0 {
		o.LoadTimeout = 5 * time.Second
	}
	if o.LoadTimeout < 0 {
		o.LoadTimeout = 0
	}
	if o.ReverifyInterval == 0 {
		o.ReverifyInterval = 5 * time.Second
	}
	if o.ReverifyInterval < 0 {
		o.ReverifyInterval = 0
	}
	o.Tiering = o.Tiering.withDefaults()
	return o
}

// image is one registered compressed ROM plus its tracelab and faultlab
// state. Its events are counted server-wide, in the registry.
type image struct {
	name   string
	codec  codecomp.BlockCodec
	format string
	blocks int
	// id is this registration's cache key: a load in flight across a
	// replace/remove inserts under the old id and can never be served as
	// a block of the new registration.
	id uint32
	// removed is set when a replace or remove deregisters the image,
	// before its blocks are invalidated, so a view closed later does not
	// insert blocks under a dead id.
	removed atomic.Bool

	// tiered is the codec downcast to its mixed-codec form, set only for
	// tiered images.
	tiered *codecomp.TieredImage
	// tierMu serializes recompression passes over this image (migrations
	// themselves are internally locked; the mutex keeps one pass's
	// plan/migrate/persist sequence from interleaving with another's).
	tierMu sync.Mutex
	// tierPolicy is this image's tier policy, set by SetTierPolicy; nil
	// uses the tiering package defaults.
	tierPolicy atomic.Pointer[codecomp.TierPolicy]

	// sidecar is the per-block integrity ground truth, built at
	// registration.
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
	// Built for free from the integrity sidecar at registration.
	offsets []int64
	// seen holds, per block, the bulk-admission stamp of the last time a
	// view decoded the block and turned it away from a full cache; 0
	// means never (see insertDecoded).
	seen []atomic.Uint32
}

// key is the image's cache key for one block.
func (img *image) key(b int) blockcache.Key {
	return blockcache.Key{Image: img.id, Block: uint32(b)}
}

// prefState is an image's active policy.
type prefState struct {
	p policy.Prefetcher
}

// task is one pool ticket: a run of blocks block..block+more of img,
// loaded in order on one worker under its watchdog. A demand read
// (demand set), a prefetch warm (no reply) and a reverify are one-block
// runs; any other run is a bulk run for a View (see handle).
// limit > 0 marks a sub-block read, whose last block needs only its
// first limit bytes; merged marks a run spanning blocks cached at
// dispatch, which the worker re-peeks. ctx is the caller's request
// context, if any: a ticket whose context expired while queued is
// retired without a decode. enq is set on every read's ticket and feeds
// the queue-wait histogram and the overload layer's estimates; span
// carries a sampled demand read's trace.
type task struct {
	img      *image
	block    int
	more     int
	limit    int
	merged   bool
	demand   bool
	reverify bool
	ctx      context.Context
	enq      time.Time
	span     *obsv.Span
	reply    *runReply
}

// fail answers the ticket with err; a prefetch has no one to answer.
func (t *task) fail(err error) {
	if r := t.reply; r != nil {
		r.err = err
		r.done <- struct{}{}
	}
}

// runReply is a ticket's answer, signalled on done; a run that fails
// part-way still returns the blocks it loaded first. Replies are pooled:
// a caller may recycle one it received, never one it abandoned, which
// its ticket may still answer.
type runReply struct {
	done chan struct{}
	// blocks are the run's blocks in order; a demand read's is blocks[0].
	blocks []runBlock
	// hit marks a demand read its worker's Get served from the cache.
	hit bool
	// decoded and decodedBytes are the blocks and codec output a bulk
	// run decoded, a partial tail's prefix included.
	decoded, decodedBytes int
	err                   error
}

var replyPool = sync.Pool{New: func() any { return &runReply{done: make(chan struct{}, 1)} }}

// recycle returns a received reply to the pool.
func (r *runReply) recycle() {
	clear(r.blocks)
	r.blocks = r.blocks[:0]
	r.hit, r.decoded, r.decodedBytes, r.err = false, 0, 0, nil
	replyPool.Put(r)
}

// runBlock is one block of a run's result. verified marks a block the
// run decoded and checked against the sidecar, which the view collecting
// it inserts into the cache at Close; a peeked block and a partial tail
// are served but not inserted.
type runBlock struct {
	data     []byte
	verified bool
}

// Server is the concurrent compressed-ROM block service.
type Server struct {
	opts  Options
	cache *blockcache.Cache

	mu     sync.RWMutex
	images map[string]*image
	closed bool

	tasks   chan task
	quit    chan struct{} // closed first: stop accepting work
	drained chan struct{} // closed after the pool has fully drained
	wg      sync.WaitGroup

	// nextID hands out cache-key ids to registrations.
	nextID atomic.Uint32
	// bulk is the reuse rule for the blocks views decode into a full
	// cache (see insertDecoded).
	bulk *blockcache.Admission

	// ovl is the overload layer (admission, brownout, retry budget);
	// nil when Options.Overload is unset.
	ovl *overloadState
	// inflight counts worker-pool tasks currently executing, behind the
	// romserver_inflight_decodes gauge.
	inflight atomic.Int64

	// met holds every server-lifetime instrument (prefetch and faultlab
	// counters, latency histograms), the one store of the server's
	// counts.
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
		bulk:    blockcache.NewAdmission(opts.CacheBlocks),
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
	if opts.Tiering.Interval > 0 {
		s.wg.Add(1)
		go s.recompressor(opts.Tiering.Interval)
	}
	if s.ovl != nil && !opts.noEvaluator {
		// The evaluator must tick independently of traffic: brownout
		// recovery happens precisely when requests stop arriving.
		s.wg.Add(1)
		go s.overloadEvaluator()
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

// handle serves one ticket and answers it with the blocks it loaded up
// to the first error; false means the watchdog retired this goroutine
// meanwhile. The flags pick what differs per block: a demand read or a
// warm goes through the cache (see cached), a reverify skips the cache,
// and a bulk run decodes and verifies for its view to insert at Close,
// after the response, so bulk traffic neither counts as demand misses
// nor touches prefetch accounting. A bulk run
// does not join the demand singleflight, so Deduped counts demand reads
// only. A merged run re-peeks; an unmerged one was all-miss at dispatch
// and decodes straight through, since a block another read filled
// meanwhile costs less to decode again than a shard lock per block,
// two adjacent blocks at a time where the codec has a two-lane kernel
// (see loadPair).
// The ticket's clock reading serves its queue wait, watchdog and first
// load; each later load starts at the previous block's last reading.
func (w *poolWorker) handle(t task) bool {
	s, img := w.s, t.img
	now := time.Now()
	timeout, err := w.bind(t.ctx, now)
	if err != nil {
		// The caller gave up while the ticket was queued: retire it
		// without dispatching the decode. The caller ends the span.
		s.met.queueExpired.Inc()
		t.fail(err)
		return true
	}
	w.begin(t, timeout, now)
	start := now
	var wait time.Duration
	if !t.enq.IsZero() {
		wait = now.Sub(t.enq)
		s.met.queueWait.Observe(wait)
		t.span.Phase("queue_wait", wait)
	}
	var (
		hit, stale            bool
		decoded, decodedBytes int
		// solo is the first block of the run a pair load may start at.
		solo int
	)
	last := t.block + t.more
	for b := t.block; b <= last; b++ {
		if t.merged {
			if data, ok := s.cache.Peek(img.key(b)); ok {
				w.blocks = append(w.blocks, runBlock{data: data})
				stale = true
				continue
			}
			if stale {
				now, stale = time.Now(), false
			}
		}
		var (
			data     []byte
			n        int
			verified bool
		)
		switch {
		case t.demand || t.reply == nil:
			data, hit, err = w.cached(&t, now)
		case t.reverify:
			_, now, err = w.loadVerified(nil, img, b, nil, now)
		case img.health.State() == Quarantined:
			err = fmt.Errorf("%w: %q", ErrQuarantined, img.name)
		case t.limit > 0 && b == last:
			// Sub-block tail: decode only the needed prefix; the result
			// cannot be sidecar-verified, so it is served but not cached.
			data, n, err = w.decodePrefix(t.ctx, img, b, t.limit, now)
		default:
			if b >= solo && b < last && !t.merged && (t.limit == 0 || b+1 < last) {
				if a, c, ok := w.loadPair(t.ctx, img, b, &now); ok {
					w.blocks = append(w.blocks, runBlock{a, true}, runBlock{c, true})
					decoded += 2
					decodedBytes += len(a) + len(c)
					b++
					continue
				}
				// Both blocks of a failed pair load one at a time.
				solo = b + 2
			}
			data, now, err = w.loadVerified(t.ctx, img, b, nil, now)
			n, verified = len(data), true
		}
		if err != nil {
			break
		}
		w.blocks = append(w.blocks, runBlock{data, verified})
		if n > 0 {
			decoded++
			decodedBytes += n
		}
	}
	if !w.end() {
		return false
	}
	if !t.enq.IsZero() && s.ovl != nil {
		s.ovl.adm.ObserveWait(wait)
		s.ovl.adm.ObserveService(time.Since(start))
	}
	if hit {
		t.span.Event("cache hit")
	}
	if r := t.reply; r != nil {
		r.blocks = append(r.blocks, w.blocks...)
		r.hit, r.decoded, r.decodedBytes, r.err = hit, decoded, decodedBytes, err
		r.done <- struct{}{}
	} else if err == nil {
		s.met.prefetchCompleted.Inc()
	}
	clear(w.blocks)
	w.blocks = w.blocks[:0]
	if t.demand && err == nil && !hit {
		if s.ovl != nil && s.ovl.ctl.Level() != overload.Healthy {
			// Under pressure, speculative warms are the first work shed.
			s.met.prefetchSuppressed.Inc()
			return true
		}
		s.prefetch(img, t.block)
	}
	return true
}

// loader is a pooled binding of a demand or warm ticket to the hardened
// load path. The bound fn is created once per pooled object, so handing a
// loader to the cache does not allocate a closure per cache miss.
type loader struct {
	w *poolWorker
	t task
	// start is the clock reading the load's first decode attempt starts
	// at.
	start time.Time
	// ran is set once the cache ran fn: this read led its flight rather
	// than waiting on another read's.
	ran bool
	fn  func() ([]byte, error)
}

var loaderPool = sync.Pool{New: func() any {
	l := &loader{}
	l.fn = l.load
	return l
}}

func (l *loader) load() ([]byte, error) {
	l.ran = true
	// Quarantined images refuse fresh decompressions; their cached
	// (verified) blocks above this loader keep serving.
	img := l.t.img
	if img.health.State() == Quarantined {
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, img.name)
	}
	data, _, err := l.w.loadVerified(l.t.ctx, img, l.t.block, l.t.span, l.start)
	return data, err
}

// cached loads a demand read's block through the cache's Get, or a
// warm's through GetPrefetch, which tags it for prefetch accuracy. A
// demand read that waited on a flight ended by its leading read's own
// context, not this read's, loads again, leading a flight of its own if
// none is under way; the watchdog armed at begin still bounds it.
func (w *poolWorker) cached(t *task, now time.Time) ([]byte, bool, error) {
	cache, key := w.s.cache, t.img.key(t.block)
	l := loaderPool.Get().(*loader)
	l.w, l.t, l.start = w, *t, now
	defer func() {
		l.w, l.t, l.ran = nil, task{}, false
		loaderPool.Put(l)
	}()
	if !t.demand {
		return cache.GetPrefetch(key, l.fn)
	}
	data, hit, err := cache.Get(key, l.fn)
	for err != nil && !l.ran && (t.ctx == nil || t.ctx.Err() == nil) && !w.isRetired() &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		l.start = time.Now()
		data, hit, err = cache.Get(key, l.fn)
	}
	return data, hit, err
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

// fetchCtx serves one demand read. Demand fetches are the access stream
// the trace recorder captures. A cached block is answered on the calling
// goroutine, the way an I-cache hit never reaches the refill engine: a
// hit is not an admitted request, so it takes no queue slot, funds no
// retry budget, reports no goodput outcome and feeds neither wait
// estimate. A miss is a one-block demand run on the pool under the
// caller's request context: the overload layer's gates run before the
// enqueue, an expired context cancels still-queued work, and the
// context's deadline clamps the per-decode deadline inside the hardened
// load path. A block filled between this look and the worker's is served
// (and counted) as a hit by the worker's Get, so no demand read is
// counted twice, except one that waited on a flight whose leading read's
// own context ended it: that read loads again (see cached) and counts
// once per attempt.
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
		if err := s.admit(ctx, img, []missRun{{first: block, last: block}}); err != nil {
			return nil, false, err
		}
	}
	sp := s.met.tracer.Begin("block_load")
	if sp != nil {
		// Formatting only runs for sampled requests; unsampled ones carry
		// a nil span all the way through for free.
		sp.Eventf("img=%s block=%d", img.name, block)
	}
	var (
		data []byte
		hit  bool
	)
	r, err := s.dispatch(ctx, task{img: img, block: block, demand: true, span: sp})
	if err == nil {
		var ok bool
		if ok, err = s.await(ctx, r); ok {
			if err == nil {
				data, hit = r.blocks[0].data, r.hit
			}
			r.recycle()
		}
	}
	sp.End(err)
	s.reportOutcome(err)
	return data, hit, err
}

// dispatch hands a read's ticket to the pool under the caller's context
// and returns its pooled reply. With the overload layer on the queue is
// a bounded admission queue: a full one rejects instead of blocking the
// caller. Otherwise the send waits for room, the context or shutdown.
func (s *Server) dispatch(ctx context.Context, t task) (*runReply, error) {
	t.ctx, t.enq, t.reply = ctx, time.Now(), replyPool.Get().(*runReply)
	var err error
	if s.ovl != nil {
		select {
		case s.tasks <- t:
			return t.reply, nil
		case <-s.quit:
			err = ErrClosed
		default:
			s.met.admissionQueueFull.Inc()
			err = &overload.RejectError{
				Reason:     overload.ReasonQueueFull,
				RetryAfter: retryAfter(s.ovl.adm.EstimateWait(len(s.tasks))),
			}
		}
	} else {
		select {
		case s.tasks <- t:
			return t.reply, nil
		case <-doneOf(ctx):
			err = ctx.Err()
		case <-s.quit:
			err = ErrClosed
		}
	}
	t.reply.recycle()
	return nil, err
}

// doneOf is ctx.Done(), or nil (never ready) for a nil context.
func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// await waits for a dispatched ticket's reply r; true means r was
// answered, and the caller reads and then recycles it. An expired caller
// context (nil for none) abandons r, and the still-queued ticket is
// retired undecoded. Shutdown may race the enqueue while the drain loop
// still serves the ticket, so r is checked once more before ErrClosed.
func (s *Server) await(ctx context.Context, r *runReply) (bool, error) {
	select {
	case <-r.done:
		return true, r.err
	case <-doneOf(ctx):
		return false, ctx.Err()
	case <-s.drained:
		select {
		case <-r.done:
			return true, r.err
		default:
			return false, ErrClosed
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
		OrigSize:       int(img.offsets[img.blocks]),
		CompressedSize: img.codec.CompressedSize(),
		Ratio:          img.codec.Ratio(),
		Health:         img.health.State().String(),
	}
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
	img := s.newImage(name, codec, codecomp.DetectFormat(data), sc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ImageInfo{}, ErrClosed
	}
	old, replaced := s.images[name]
	s.images[name] = img
	s.mu.Unlock()
	if replaced {
		old.removed.Store(true)
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
	img.removed.Store(true)
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

// BlockContext returns the decompressed bytes of one cache block; the
// bool reports whether the read was a cache hit. A cached block is
// answered on the calling goroutine at every overload level. For a miss,
// the context's deadline drives admission control (a read whose
// estimated queue wait would blow the deadline is rejected with
// *overload.RejectError before queueing), cancels the ticket if it is
// still queued when the context expires, and clamps the per-decode
// deadline. A background context imposes none of these.
func (s *Server) BlockContext(ctx context.Context, name string, i int) ([]byte, bool, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, false, err
	}
	if i < 0 || i >= img.blocks {
		return nil, false, fmt.Errorf("%w: %d of %q [0,%d)", ErrOutOfRange, i, name, img.blocks)
	}
	return s.fetchCtx(ctx, img, i)
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
// server defaults; SetPolicy clamps larger ones to MaxPolicyDepth and
// MaxPolicyTopK.
type PolicySpec struct {
	// Policy is "sequential" or "markov".
	Policy string `json:"policy"`
	// Depth is the sequential/fallback/chain prefetch depth (default:
	// Options.PrefetchDepth, at most MaxPolicyDepth).
	Depth int `json:"depth"`
	// TopK is how many Markov successors each miss warms (default 2, at
	// most MaxPolicyTopK).
	TopK int `json:"top_k"`
}

// MaxPolicyDepth and MaxPolicyTopK bound a PolicySpec, so no prediction
// is longer than MaxPolicyDepth blocks, sixteen times the default
// depth. Building a markov policy walks each block's top-1 chain until
// depth blocks are predicted, so an unbounded depth costs time and
// memory quadratic in a cyclic trace's distinct blocks.
const (
	MaxPolicyDepth = 64
	MaxPolicyTopK  = 8
)

// PolicyInfo describes an image's active policy.
type PolicyInfo struct {
	Image  string `json:"image"`
	Policy string `json:"policy"`
}

// SetPolicy switches the image's prefetch policy. markov requires a
// prior Train/TrainFrom. The new policy takes over with one atomic store:
// a miss already past its policy load finishes on the old one.
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
	depth, topK := min(depth, MaxPolicyDepth), min(spec.TopK, MaxPolicyTopK)
	prof := img.profile.Load()
	p, err := policy.New(spec.Policy, policy.Config{
		Blocks:  img.blocks,
		Depth:   depth,
		TopK:    topK,
		Profile: prof,
	})
	if err != nil {
		if prof == nil && spec.Policy == "markov" {
			return PolicyInfo{}, fmt.Errorf("%w: %q (%s policy needs training)", ErrNoProfile, name, spec.Policy)
		}
		return PolicyInfo{}, fmt.Errorf("%w: %v", ErrBadPolicy, err)
	}
	img.pref.Store(&prefState{p: p})
	return PolicyInfo{Image: name, Policy: p.Name()}, nil
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
		info.Policy = ref.p.Name()
	}
	return info
}

// newImage builds the serving state for one codec and its sidecar: the
// offset table, the per-block admission stamps, trace recorder sized by
// Options.TraceBuffer, the default sequential prefetch policy, a fresh
// cache-key id and a fresh health state machine.
func (s *Server) newImage(name string, codec codecomp.BlockCodec, format string, sc *sidecar) *image {
	img := &image{
		name:    name,
		codec:   codec,
		format:  format,
		blocks:  codec.NumBlocks(),
		id:      s.nextID.Add(1),
		sidecar: sc,
		offsets: sc.blockOffsets(),
		seen:    make([]atomic.Uint32, codec.NumBlocks()),
		health:  newImageHealth(healthWindow),
	}
	if t, ok := codec.(*codecomp.TieredImage); ok {
		img.tiered = t
	}
	if s.opts.TraceBuffer > 0 {
		img.recorder = traceprof.NewRecorder(s.opts.TraceBuffer)
	}
	if s.opts.PrefetchDepth > 0 {
		img.pref.Store(&prefState{p: policy.NewSequential(s.opts.PrefetchDepth, img.blocks)})
	}
	return img
}
