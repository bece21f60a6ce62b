// Observability wiring for the serving layer: every server-lifetime
// counter lives in an obsv.Registry so one scrape of /metrics sees the
// same numbers Stats() reports, plus the latency histograms (queue wait,
// decode, verify, whole block load) that only the registry carries.
// Labeled and unlabeled instruments are resolved once here, at server
// construction; the hot path only ever touches pre-resolved atomics.
package romserver

import (
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
)

// serverMetrics is the server's pre-resolved instrument set. The counters
// are the source of truth for the server-lifetime rollups (Stats() reads
// them back); the cache and image gauges are read-at-scrape funcs over
// the subsystems' own counters, so nothing is double-accounted.
type serverMetrics struct {
	reg    *obsv.Registry
	tracer *obsv.Tracer

	// Load-path latency phases, demand and background alike.
	queueWait *obsv.Histogram
	decode    *obsv.Histogram
	verify    *obsv.Histogram
	blockLoad *obsv.Histogram

	decompressions    *obsv.Counter
	corruptBlocks     *obsv.Counter
	retries           *obsv.Counter
	codecPanics       *obsv.Counter
	decodeTimeouts    *obsv.Counter
	loadFailures      *obsv.Counter
	reverifies        *obsv.Counter
	healthTransitions *obsv.Counter

	prefetchIssued    *obsv.Counter
	prefetchDropped   *obsv.Counter
	prefetchCompleted *obsv.Counter

	// Batched range-read path.
	rangeReads         *obsv.Counter
	rangeDispatches    *obsv.Counter
	rangeCachedBlocks  *obsv.Counter
	rangeDecodedBlocks *obsv.Counter
	rangeRead          *obsv.Histogram

	// Byte-granular sub-block read path (ReadAt / GET .../bytes).
	subblockReads       *obsv.Counter
	subblockBytes       *obsv.Counter
	partialDecodes      *obsv.Counter
	partialDecodedBytes *obsv.Counter
	subblockRead        *obsv.Histogram

	peerFills       *obsv.Counter
	peerFillRejects *obsv.Counter

	// Overload layer (always registered so the metric surface — and the
	// runbook coverage tests — do not depend on configuration; the
	// counters just stay zero when the layer is off).
	overloadTransitions *obsv.Counter
	admissionDeadline   *obsv.Counter
	admissionQueueFull  *obsv.Counter
	brownoutShed        *obsv.Counter
	prefetchSuppressed  *obsv.Counter
	queueExpired        *obsv.Counter
	retryDenied         *obsv.Counter

	faultBitFlips   *obsv.Counter
	faultTransients *obsv.Counter
	faultPermanents *obsv.Counter
	faultPanics     *obsv.Counter

	// Heat-tiered recompression (always registered, like the overload
	// families; zero until a tiered image is served).
	tieringBlocks          *obsv.GaugeVec
	tieringMigrations      *obsv.Counter
	tieringVerifyFailures  *obsv.Counter
	tieringBytesSaved      *obsv.Counter
	tieringBytesSpent      *obsv.Counter
	tieringPasses          *obsv.Counter
	tieringPersistFailures *obsv.Counter
}

// newServerMetrics registers the serving layer's families on reg and
// resolves every instrument the hot path needs.
func newServerMetrics(reg *obsv.Registry, tracer *obsv.Tracer) *serverMetrics {
	m := &serverMetrics{
		reg:    reg,
		tracer: tracer,

		queueWait: reg.Histogram("romserver_queue_wait_seconds",
			"Time a demand block read that missed the cache waited in the worker-pool queue (hits never queue)."),
		decode: reg.Histogram("romserver_decode_seconds",
			"Wall-clock time of one decompression attempt: the codec call and its panic recovery, run inline on the pool worker."),
		verify: reg.Histogram("romserver_verify_seconds",
			"Time verifying one decompressed block against the integrity sidecar."),
		blockLoad: reg.Histogram("romserver_block_load_seconds",
			"End-to-end time of one hardened block load: all attempts, backoff, verification."),

		decompressions: reg.Counter("romserver_decompressions_total",
			"Codec block decompressions actually executed (the work the cache exists to avoid)."),
		corruptBlocks: reg.Counter("romserver_corrupt_blocks_total",
			"Decompressed blocks rejected by the integrity sidecar (detected, never served, never cached)."),
		retries: reg.Counter("romserver_retries_total",
			"Extra load attempts after a retryable failure."),
		codecPanics: reg.Counter("romserver_codec_panics_total",
			"Codec panics recovered into errors by the hardened load path."),
		decodeTimeouts: reg.Counter("romserver_decode_timeouts_total",
			"Pool tickets whose decode, or wait on another worker's decode, outlived the load deadline; the watchdog answered each and replaced its worker."),
		loadFailures: reg.Counter("romserver_load_failures_total",
			"Block loads that failed after all attempts."),
		reverifies: reg.Counter("romserver_reverifies_total",
			"Background re-verification loads of degraded or quarantined images."),
		healthTransitions: reg.Counter("romserver_health_transitions_total",
			"Image health state changes (healthy/degraded/quarantined, either direction)."),

		prefetchIssued: reg.Counter("romserver_prefetch_issued_total",
			"Prefetch tasks enqueued onto the worker pool."),
		prefetchDropped: reg.Counter("romserver_prefetch_dropped_total",
			"Prefetches skipped because the pool queue was saturated."),
		prefetchCompleted: reg.Counter("romserver_prefetch_completed_total",
			"Prefetched blocks that landed in the cache."),

		rangeReads: reg.Counter("romserver_range_reads_total",
			"Batched range reads served (GET /images/{name}/blocks?range=i-j)."),
		rangeDispatches: reg.Counter("romserver_range_dispatches_total",
			"Worker-pool tickets used by batched range reads and /text windows — one per contiguous miss-run, not one per block."),
		rangeCachedBlocks: reg.Counter("romserver_range_cached_blocks_total",
			"Range-read and /text blocks served straight from the cache (Peek: no LRU promotion, no demand hit/miss impact)."),
		rangeDecodedBlocks: reg.Counter("romserver_range_decoded_blocks_total",
			"Range-read and /text blocks decoded by batched dispatches and inserted into the cache."),
		rangeRead: reg.Histogram("romserver_range_read_seconds",
			"End-to-end time of one batched range read: dispatch, decode and reassembly."),

		subblockReads: reg.Counter("romserver_subblock_reads_total",
			"Byte-granular sub-block reads served (ReadAt / GET /images/{name}/bytes)."),
		subblockBytes: reg.Counter("romserver_subblock_bytes_total",
			"Decompressed bytes returned by sub-block reads."),
		partialDecodes: reg.Counter("romserver_partial_decodes_total",
			"Tail blocks of sub-block reads decoded only up to the requested offset (served unverified, never cached)."),
		partialDecodedBytes: reg.Counter("romserver_partial_decoded_bytes_total",
			"Codec output bytes produced by partial tail decodes — compare against block size × partial decodes to see the skipped work."),
		subblockRead: reg.Histogram("romserver_subblock_read_seconds",
			"End-to-end time of one byte-granular sub-block read."),

		peerFills: reg.Counter("romserver_peer_fills_total",
			"Cache misses served by the fill hook (a replica's hot cache) after sidecar verification, skipping local decompression."),
		peerFillRejects: reg.Counter("romserver_peer_fill_rejects_total",
			"Fill-hook responses rejected by the integrity sidecar (discarded; the load fell through to local decompression)."),

		overloadTransitions: reg.Counter("overload_level_transitions_total",
			"Brownout level changes (healthy/pressured/browned_out, either direction)."),
		brownoutShed: reg.Counter("overload_brownout_shed_total",
			"Cold demand misses shed while browned out (not cached, not in the trained hot set)."),
		prefetchSuppressed: reg.Counter("overload_prefetch_suppressed_total",
			"Demand misses whose speculative warms were suppressed because the server was pressured or browned out."),
		queueExpired: reg.Counter("overload_queue_expired_total",
			"Queued tickets retired without a decode because the caller's context expired while they waited."),
		retryDenied: reg.Counter("overload_retry_denied_total",
			"Load retries refused by the token-bucket retry budget."),

		faultBitFlips: reg.Counter("faultinj_bitflips_total",
			"Injected output bit flips (chaos mode)."),
		faultTransients: reg.Counter("faultinj_transient_errors_total",
			"Injected retryable load failures (chaos mode)."),
		faultPermanents: reg.Counter("faultinj_permanent_errors_total",
			"Injected permanent load failures (chaos mode)."),
		faultPanics: reg.Counter("faultinj_panics_total",
			"Injected codec panics (chaos mode)."),

		tieringMigrations: reg.Counter("tiering_migrations_total",
			"Blocks migrated between codec tiers by recompression passes (each an encode-verify-swap that invalidated the block's cached copy)."),
		tieringVerifyFailures: reg.Counter("tiering_verify_failures_total",
			"Tier migrations rolled back because the re-encoded block failed the round-trip or sidecar verification (the old tier kept serving)."),
		tieringBytesSaved: reg.Counter("tiering_bytes_saved_total",
			"Compressed bytes reclaimed by migrations into denser tiers."),
		tieringBytesSpent: reg.Counter("tiering_bytes_spent_total",
			"Compressed bytes spent by migrations into faster tiers (the storage cost of lower decode latency)."),
		tieringPasses: reg.Counter("tiering_passes_total",
			"Recompression passes completed (background and synchronous Recompress alike)."),
		tieringPersistFailures: reg.Counter("tiering_persist_failures_total",
			"Recompression passes whose post-migration persist hook failed (the in-memory tier map is ahead of disk until a later pass persists)."),
	}
	rejects := reg.CounterVec("overload_admission_rejects_total",
		"Demand reads rejected by admission control, by reason (deadline: estimated wait exceeded the request deadline; queue_full: the bounded admission queue had no room).",
		"reason")
	m.admissionDeadline = rejects.With("deadline")
	m.admissionQueueFull = rejects.With("queue_full")
	m.tieringBlocks = reg.GaugeVec("tiering_blocks",
		"Blocks currently stored in each codec tier across all tiered images (event-driven: refreshed at registration changes and after every recompression pass).",
		"tier")
	return m
}

// registerServerGauges registers the read-at-scrape families that mirror
// the cache's and server's own state. Separate from newServerMetrics
// because the funcs close over the fully constructed *Server.
func (s *Server) registerServerGauges() {
	reg := s.met.reg
	reg.CounterFunc("blockcache_hits_total",
		"Demand reads served from the decompressed-block cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("blockcache_misses_total",
		"Demand reads that required a decompression.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("blockcache_deduped_total",
		"Concurrent reads coalesced onto one in-flight load by singleflight.",
		func() float64 { return float64(s.cache.Stats().Deduped) })
	reg.CounterFunc("blockcache_evictions_total",
		"Cache entries evicted by LRU pressure.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc("blockcache_prefetch_hits_total",
		"Demand hits on prefetch-warmed blocks (the prefetches that paid off).",
		func() float64 { return float64(s.cache.Stats().PrefetchHits) })
	reg.CounterFunc("blockcache_prefetch_evicted_total",
		"Prefetched blocks evicted before any demand hit (wasted prefetches).",
		func() float64 { return float64(s.cache.Stats().PrefetchEvicted) })
	reg.GaugeFunc("blockcache_entries",
		"Blocks currently cached.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("blockcache_bytes",
		"Decompressed bytes currently cached.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.GaugeFunc("blockcache_pinned",
		"Blocks held in the cache's protected (pinned) region.",
		func() float64 { return float64(s.cache.Stats().Pinned) })
	reg.CounterFunc("blockcache_leases_acquired_total",
		"Block leases handed out (zero-copy views pinned by a reference instead of borrowed).",
		func() float64 { return float64(s.cache.Stats().LeasesAcquired) })
	reg.GaugeFunc("blockcache_leases_active",
		"Block leases currently held; a permanently nonzero floor here is a leaked lease.",
		func() float64 { return float64(s.cache.Stats().LeasesActive) })
	reg.GaugeFunc("blockcache_retired_lease_bufs",
		"Evicted or replaced blocks whose buffers outstanding leases still pin (freed when the last lease releases).",
		func() float64 { return float64(s.cache.Stats().RetiredLeaseBufs) })
	reg.GaugeFunc("blockcache_retired_lease_bytes",
		"Decompressed bytes pinned by leases on retired (evicted/replaced) blocks — memory the LRU thinks it freed but readers still hold.",
		func() float64 { return float64(s.cache.Stats().RetiredLeaseBytes) })

	reg.GaugeFunc("romserver_images",
		"Registered images.",
		func() float64 {
			s.mu.RLock()
			n := len(s.images)
			s.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("romserver_images_unready",
		"Images currently quarantined (readiness is false while nonzero).",
		func() float64 {
			s.mu.RLock()
			imgs := make([]*image, 0, len(s.images))
			for _, img := range s.images {
				imgs = append(imgs, img)
			}
			s.mu.RUnlock()
			var n int
			for _, img := range imgs {
				if img.health.State() == Quarantined {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("romserver_queue_depth",
		"Tasks currently waiting in the worker-pool queue.",
		func() float64 { return float64(len(s.tasks)) })
	reg.GaugeFunc("romserver_inflight_decodes",
		"Worker-pool tasks currently executing: demand misses, range runs, prefetches and re-verifies (hits are served on the caller).",
		func() float64 { return float64(s.inflight.Load()) })

	// Overload gauges are registered unconditionally like the counters;
	// with the layer off they read as a permanently healthy server.
	reg.GaugeFunc("overload_level",
		"Current brownout level (0 healthy, 1 pressured, 2 browned out).",
		func() float64 { return float64(s.OverloadLevel()) })
	reg.GaugeFunc("overload_retry_budget_tokens",
		"Retry-budget tokens currently available.",
		func() float64 {
			if s.ovl == nil {
				return 0
			}
			return s.ovl.bud.Tokens()
		})
	reg.GaugeFunc("overload_queue_wait_estimate_seconds",
		"Admission control's current estimate of the queue wait a new miss ticket would see (hits skip admission).",
		func() float64 {
			if s.ovl == nil {
				return 0
			}
			return s.ovl.adm.EstimateWait(len(s.tasks)).Seconds()
		})
	reg.GaugeFunc("overload_goodput_ratio",
		"Success fraction of the brownout controller's recent outcome window (1.0 when idle or disabled).",
		func() float64 {
			if s.ovl == nil {
				return 1
			}
			good, _ := s.ovl.ctl.Goodput()
			return good
		})
}

// countFault mirrors one injected fault into the registry; installed as
// the faultinj hook by SetFaults.
func (m *serverMetrics) countFault(k faultinj.Kind) {
	switch k {
	case faultinj.KindBitFlip:
		m.faultBitFlips.Inc()
	case faultinj.KindTransient:
		m.faultTransients.Inc()
	case faultinj.KindPermanent:
		m.faultPermanents.Inc()
	case faultinj.KindPanic:
		m.faultPanics.Inc()
	}
}

// Registry returns the server's metrics registry (the one passed in
// Options.Registry, or the private registry the server created).
func (s *Server) Registry() *obsv.Registry { return s.met.reg }

// Tracer returns the server's request tracer, nil when tracing is off.
func (s *Server) Tracer() *obsv.Tracer { return s.met.tracer }
