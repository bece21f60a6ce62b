// Command codecompd serves compressed-ROM images over HTTP: upload a
// marshaled SAMC/SADC/byte-Huffman image once, then fetch decompressed
// cache blocks at random access, exactly as an embedded refill engine would
// — but concurrently, behind a sharded decompression cache with sequential
// prefetch (internal/romserver).
//
// Endpoints:
//
//	POST /images?name=N          upload a marshaled image (format auto-detected)
//	GET  /images                 list registered images
//	GET  /images/{name}          one image's metadata
//	GET  /images/{name}/blocks/{i}  one decompressed block (X-Cache: hit|miss)
//	GET  /images/{name}/blocks?range=i-j  blocks [i,j] via the batched
//	                             decode path (X-Range-* amortization stats)
//	GET  /images/{name}/bytes?off=O&len=N  N decompressed bytes at byte
//	                             offset O — sub-block reads lease cached
//	                             blocks zero-copy and only partially
//	                             decode a mid-block tail (X-Decoded-Bytes)
//	GET  /images/{name}/text     the whole decompressed program, streamed
//	                             as pipelined batched-range windows
//	DELETE /images/{name}        deregister an image
//	GET  /healthz                liveness (always 200 while the process serves)
//	GET  /readyz                 readiness (503 while any image is quarantined)
//	GET  /metrics                Prometheus text exposition by default; the
//	                             legacy JSON stats with Accept: application/json
//	                             or ?format=json
//	GET  /debug/traces           ring of recently sampled block-load traces
//	                             (queue wait / decode / verify phases, retry
//	                             and corruption events), newest first
//
// Faultlab (chaos testing, only with -enable-fault-injection):
//
//	PUT  /images/{name}/faults?bitflip=0.02&transient=0.01&seed=1
//	                             install a deterministic fault injector in
//	                             front of the image's codec; also accepts
//	                             panic_blocks= and error_blocks= (comma-
//	                             separated block indices) and latency_ms=
//	DELETE /images/{name}/faults remove the injector
//
// Tracelab (access-pattern profiling and prefetch policies):
//
//	POST /images/{name}/train    train from the live trace ring, or from a
//	                             codecomp-trace text body if one is posted
//	GET  /images/{name}/profile  trained profile summary (heat, reuse, ...)
//	GET  /images/{name}/trace    the recorded trace in codecomp-trace text
//	PUT  /images/{name}/policy?policy=markov&k=2&depth=4&pin=64
//	                             switch prefetch policy (sequential|markov|hotset)
//	GET  /images/{name}/policy   the active policy
//
// Tiering (mixed-codec images only; see internal/tiering):
//
//	GET  /images/{name}/tiering  tier populations, per-block assignments and
//	                             the effective recompression policy
//	PUT  /images/{name}/tiering?hot=0.6&warm=0.25&max_hot=0.25
//	                             set the image's tier policy (also accepts a
//	                             JSON policy body); add &recompress=1 to run
//	                             a synchronous recompression pass and get its
//	                             stats back
//
// Profiling: -enable-pprof mounts net/http/pprof under /debug/pprof/
// (off by default; the heap and CPU profiles expose internals).
//
// Example:
//
//	codecompd -addr :8077 &
//	codecomp -alg samc -in prog.bin -save prog.samc
//	curl --data-binary @prog.samc 'localhost:8077/images?name=prog'
//	curl localhost:8077/images/prog/blocks/7
//	curl -X POST localhost:8077/images/prog/train
//	curl -X PUT 'localhost:8077/images/prog/policy?policy=markov'
//	curl localhost:8077/metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"codecomp"
	"codecomp/internal/cluster"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// config is everything a daemon needs besides the listen address; tests
// build daemons directly from it.
type config struct {
	cacheBlocks   int
	cacheShards   int
	workers       int
	queueDepth    int
	prefetch      int
	traceBuffer   int
	maxImage      int64
	loadTimeout   time.Duration
	retries       int
	reverify      time.Duration
	faultsAllowed bool
	enablePprof   bool
	traceRing     int
	traceSample   int
	// dataDir, when set, write-through persists registered images and
	// recovers them on boot (internal/cluster.Store) — a restarted
	// daemon comes back owning its images without re-registration.
	dataDir string
	// overload enables the admission/brownout layer (internal/overload):
	// deadline-aware admission in front of the pool queue, retry budgets,
	// and heat-aware brownout shedding.
	overload bool
	// tieringInterval is the background recompression pass period for
	// tiered images (<= 0 disables the background pass; synchronous
	// recompression via PUT .../tiering?recompress=1 always works).
	tieringInterval time.Duration
}

type daemon struct {
	rs            *romserver.Server
	reg           *obsv.Registry
	tracer        *obsv.Tracer
	mux           *http.ServeMux
	started       time.Time
	faultsAllowed bool
	// store persists images when -data-dir is set; nil otherwise.
	store *cluster.Store
	// regMu serializes registration and removal with their store
	// write-through, so a concurrent upload and delete of one name
	// cannot leave disk and registry disagreeing.
	regMu sync.Mutex
	// api is the cluster-internal surface (peer cache-fill, cache-only
	// peeks, peer-table pushes) that makes a standalone daemon a full
	// cluster member.
	api *cluster.InternalAPI

	// HTTP-layer instruments; the per-route series are resolved at route
	// registration, not per request.
	httpInflight *obsv.Gauge
	httpRequests *obsv.CounterVec
	httpErrors   *obsv.CounterVec
	httpLatency  *obsv.HistogramVec
}

// newDaemon builds the serving stack and its routed, instrumented mux.
func newDaemon(cfg config) (*daemon, error) {
	lt := cfg.loadTimeout
	if lt <= 0 {
		lt = -1 // romserver: negative disables, zero means default
	}
	rv := cfg.reverify
	if rv <= 0 {
		rv = -1
	}
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer(cfg.traceRing, cfg.traceSample)
	var ovl *overload.Config
	if cfg.overload {
		ovl = &overload.Config{}
	}
	// The persist hook closes over the store variable so tier migrations
	// are flushed to the data dir once it is open (nil store: no-op).
	var persistStore *cluster.Store
	tiering := &romserver.TieringOptions{
		Interval: cfg.tieringInterval,
		Persist: func(name string, image []byte) error {
			if persistStore == nil {
				return nil
			}
			return persistStore.Save(name, image)
		},
	}
	if cfg.tieringInterval <= 0 {
		tiering.Interval = -1
	}
	d := &daemon{
		rs: romserver.New(romserver.Options{
			CacheBlocks:      cfg.cacheBlocks,
			CacheShards:      cfg.cacheShards,
			Workers:          cfg.workers,
			QueueDepth:       cfg.queueDepth,
			PrefetchDepth:    cfg.prefetch,
			TraceBuffer:      cfg.traceBuffer,
			LoadTimeout:      lt,
			LoadAttempts:     cfg.retries,
			ReverifyInterval: rv,
			Registry:         reg,
			Tracer:           tracer,
			Overload:         ovl,
			Tiering:          tiering,
		}),
		reg:           reg,
		tracer:        tracer,
		started:       time.Now(),
		faultsAllowed: cfg.faultsAllowed,
		httpInflight: reg.Gauge("codecompd_http_inflight",
			"HTTP requests currently being served."),
		httpRequests: reg.CounterVec("codecompd_http_requests_total",
			"HTTP requests served, by route.", "route"),
		httpErrors: reg.CounterVec("codecompd_http_errors_total",
			"HTTP responses with status >= 400, by route.", "route"),
		httpLatency: reg.HistogramVec("codecompd_http_request_seconds",
			"HTTP request latency, by route.", "route"),
	}
	d.api = cluster.NewInternalAPI(d.rs, reg, 0)
	if cfg.dataDir != "" {
		st, err := cluster.OpenStore(cfg.dataDir)
		if err != nil {
			d.rs.Close()
			return nil, err
		}
		d.store = st
		persistStore = st
		imgs, errs := st.Load()
		for _, e := range errs {
			log.Printf("codecompd: store: %v", e)
		}
		for _, im := range imgs {
			if _, err := d.rs.AddImage(im.Name, im.Payload); err != nil {
				log.Printf("codecompd: recovering %q: %v", im.Name, err)
			}
		}
		if len(imgs) > 0 {
			log.Printf("codecompd: recovered %d image(s) from %s", len(imgs), cfg.dataDir)
		}
	}

	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, d.instrument(route, h))
	}
	handle("POST /images", "upload", d.maxBody(cfg.maxImage, d.handleUpload))
	handle("GET /images", "list", d.handleList)
	handle("GET /images/{name}", "image", d.handleImage)
	handle("DELETE /images/{name}", "delete", d.handleDelete)
	handle("GET /images/{name}/blocks/{i}", "block", d.handleBlock)
	handle("GET /images/{name}/blocks", "range", d.handleRange)
	handle("GET /images/{name}/bytes", "bytes", d.handleBytes)
	handle("GET /images/{name}/text", "text", d.handleText)
	handle("POST /images/{name}/train", "train", d.maxBody(cfg.maxImage, d.handleTrain))
	handle("GET /images/{name}/profile", "profile", d.handleProfile)
	handle("GET /images/{name}/trace", "trace", d.handleTrace)
	handle("PUT /images/{name}/policy", "set_policy", d.handleSetPolicy)
	handle("GET /images/{name}/policy", "get_policy", d.handleGetPolicy)
	handle("GET /images/{name}/tiering", "get_tiering", d.handleGetTiering)
	handle("PUT /images/{name}/tiering", "set_tiering", d.handleSetTiering)
	handle("PUT /images/{name}/faults", "set_faults", d.handleSetFaults)
	handle("DELETE /images/{name}/faults", "clear_faults", d.handleClearFaults)
	handle("GET /healthz", "healthz", d.handleHealthz)
	handle("GET /readyz", "readyz", d.handleReadyz)
	handle("GET /metrics", "metrics", d.handleMetrics)
	handle("GET /debug/traces", "debug_traces", d.handleTraces)
	handle("GET /internal/images/{name}/cached/{i}", "internal_cached", d.api.HandleCached)
	handle("PUT /internal/peers", "internal_peers", d.api.HandlePeers)
	if cfg.enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	d.mux = mux
	return d, nil
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route with the HTTP-layer metrics: request and
// error counters, a per-route latency histogram and the in-flight gauge.
// The labeled series resolve here, once per route, so per-request cost is
// four atomic operations plus the status wrapper.
func (d *daemon) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := d.httpRequests.With(route)
	errs := d.httpErrors.With(route)
	lat := d.httpLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		d.httpInflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		d.httpInflight.Add(-1)
		lat.Observe(time.Since(start))
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	cacheBlocks := flag.Int("cache-blocks", 8192, "decompressed-block cache capacity")
	cacheShards := flag.Int("cache-shards", 16, "cache shard count")
	workers := flag.Int("workers", 8, "decompression worker pool size")
	queueDepth := flag.Int("queue", 0, "pool queue depth (0 = 4x workers)")
	prefetch := flag.Int("prefetch", 4, "blocks warmed after a demand miss (-1 disables)")
	traceBuffer := flag.Int("trace-buffer", 65536, "per-image access-trace ring size (-1 disables recording)")
	maxImage := flag.Int64("max-image-bytes", 64<<20, "largest accepted upload")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	loadTimeout := flag.Duration("load-timeout", 5*time.Second, "per-block decompression deadline (0 disables)")
	retries := flag.Int("retries", 3, "decompression attempts per block before failing the read")
	reverify := flag.Duration("reverify", 2*time.Second, "background re-verify interval for unhealthy images (0 disables)")
	enableFaults := flag.Bool("enable-fault-injection", false, "allow PUT /images/{name}/faults (chaos testing)")
	enablePprof := flag.Bool("enable-pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceRing := flag.Int("trace-ring", 256, "how many completed block-load traces /debug/traces keeps")
	traceSample := flag.Int("trace-sample", 16, "trace one block load in N (1 traces every load)")
	dataDir := flag.String("data-dir", "", "persist registered images here and recover them on boot (empty disables)")
	enableOverload := flag.Bool("overload", true, "adaptive admission control, retry budgets and brownout shedding (internal/overload)")
	tieringInterval := flag.Duration("tiering-interval", 10*time.Second, "background recompression pass period for tiered images (0 disables)")
	flag.Parse()

	d, err := newDaemon(config{
		cacheBlocks:     *cacheBlocks,
		cacheShards:     *cacheShards,
		workers:         *workers,
		queueDepth:      *queueDepth,
		prefetch:        *prefetch,
		traceBuffer:     *traceBuffer,
		maxImage:        *maxImage,
		loadTimeout:     *loadTimeout,
		retries:         *retries,
		reverify:        *reverify,
		faultsAllowed:   *enableFaults,
		enablePprof:     *enablePprof,
		traceRing:       *traceRing,
		traceSample:     *traceSample,
		dataDir:         *dataDir,
		overload:        *enableOverload,
		tieringInterval: *tieringInterval,
	})
	if err != nil {
		log.Fatalf("codecompd: %v", err)
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      d.mux,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("codecompd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck — best-effort drain
	}()

	log.Printf("codecompd: serving on %s (cache %d blocks / %d shards, %d workers, prefetch %d)",
		*addr, *cacheBlocks, *cacheShards, *workers, *prefetch)
	if d.faultsAllowed {
		log.Printf("codecompd: FAULT INJECTION ENABLED — do not run in production")
	}
	if *enablePprof {
		log.Printf("codecompd: pprof enabled on /debug/pprof/")
	}
	err = srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("codecompd: %v", err)
	}
	// HTTP listener is down; drain the decompression pool.
	d.rs.Close()
}

func (d *daemon) maxBody(n int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, n)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client went away
}

// writeErr maps serving errors onto HTTP statuses. Overload outcomes
// are deliberately distinct so clients and dashboards can tell them
// apart: 429 + Retry-After means admission control rejected the request
// up front (back off and retry), 503 + Retry-After means brownout shed
// a cold miss (the server is alive but protecting its hot set; 503
// without Retry-After remains quarantine/closed), and 504 means the
// request's own propagated deadline expired (retrying with the same
// deadline will fail again).
func writeErr(w http.ResponseWriter, err error) {
	var rej *overload.RejectError
	if errors.As(err, &rej) {
		status := http.StatusTooManyRequests
		if rej.Reason == overload.ReasonBrownout {
			status = http.StatusServiceUnavailable
		}
		secs := int(rej.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, romserver.ErrNotFound), errors.Is(err, romserver.ErrOutOfRange):
		status = http.StatusNotFound
	case errors.Is(err, romserver.ErrClosed), errors.Is(err, romserver.ErrQuarantined):
		status = http.StatusServiceUnavailable
	case errors.Is(err, romserver.ErrCorruptBlock), errors.Is(err, romserver.ErrCodecPanic):
		status = http.StatusBadGateway
	case errors.Is(err, romserver.ErrDecompressTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, romserver.ErrNoTrace), errors.Is(err, romserver.ErrNoProfile),
		errors.Is(err, romserver.ErrNotTiered):
		status = http.StatusConflict
	case errors.Is(err, romserver.ErrBadPolicy):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *daemon) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?name="})
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	info, err := d.rs.AddImage(name, data)
	if err != nil {
		if errors.Is(err, romserver.ErrClosed) {
			writeErr(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
		return
	}
	if d.store != nil {
		// Write-through: not durably registered until on disk; a failed
		// save rolls the registration back so a restart never disagrees
		// with what this response promised.
		if err := d.store.Save(name, data); err != nil {
			d.rs.RemoveImage(name) //nolint:errcheck — best-effort rollback
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	log.Printf("codecompd: registered %q (%s, %d blocks, ratio %.4f)", name, info.Format, info.Blocks, info.Ratio)
	writeJSON(w, http.StatusCreated, info)
}

func (d *daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.rs.Images())
}

func (d *daemon) handleImage(w http.ResponseWriter, r *http.Request) {
	info, err := d.rs.Image(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if err := d.rs.RemoveImage(r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	if d.store != nil {
		if err := d.store.Remove(r.PathValue("name")); err != nil {
			log.Printf("codecompd: %v", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *daemon) handleBlock(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "block index must be an integer"})
		return
	}
	ctx, cancel, err := overload.WithDeadlineHeader(r.Context(), r.Header.Get(overload.DeadlineHeader))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	defer cancel()
	data, hit, err := d.rs.BlockContext(ctx, r.PathValue("name"), i)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(data) //nolint:errcheck
}

// handleRange serves GET /images/{name}/blocks?range=i-j through the
// batched decode path: one worker-pool ticket per contiguous miss-run
// instead of one per block. The decoded blocks land in the cache when
// the view is closed, after the response is flushed. The amortization stats travel back as
// X-Range-* headers so callers (loadgen's range arm, ops curl) can see
// how the read was served without parsing a JSON envelope around the
// binary payload.
func (d *daemon) handleRange(w http.ResponseWriter, r *http.Request) {
	first, last, ok := parseRange(r.URL.Query().Get("range"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "range must be i-j with 0 <= i <= j"})
		return
	}
	v, err := d.rs.RangeView(r.PathValue("name"), first, last)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer v.Close()
	writeView(w, v)
}

// writeView sends a zero-copy view as the response body: stats as
// X-Range-* headers, then the parts written through the view's WriteTo
// — no concatenation buffer on the daemon side. It flushes the response
// before returning, so the client has every byte before the caller's
// deferred Close inserts the view's decoded blocks into the cache.
func writeView(w http.ResponseWriter, v *romserver.View) {
	st := v.Stats()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(v.Len()))
	w.Header().Set("X-Range-Blocks", strconv.Itoa(st.Blocks))
	w.Header().Set("X-Range-Cached", strconv.Itoa(st.CachedBlocks))
	w.Header().Set("X-Range-Dispatches", strconv.Itoa(st.Dispatches))
	w.Header().Set("X-Range-Decoded", strconv.Itoa(st.DecodedBlocks))
	w.Header().Set("X-Decoded-Bytes", strconv.Itoa(v.DecodedBytes()))
	if _, err := v.WriteTo(w); err != nil {
		return // client went away
	}
	http.NewResponseController(w).Flush() //nolint:errcheck — best effort; net/http flushes at return anyway
}

// handleBytes serves GET /images/{name}/bytes?off=&len= — the
// byte-granular sub-block read path. Cached blocks stream zero-copy
// from leases; a tail that ends mid-block on a healthy image is
// partially decoded, and X-Decoded-Bytes reports how much codec output
// the read actually paid for.
func (d *daemon) handleBytes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	off, err1 := strconv.Atoi(q.Get("off"))
	n, err2 := strconv.Atoi(q.Get("len"))
	if err1 != nil || err2 != nil || off < 0 || n < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "off and len must be non-negative integers"})
		return
	}
	ctx, cancel, err := overload.WithDeadlineHeader(r.Context(), r.Header.Get(overload.DeadlineHeader))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	defer cancel()
	v, err := d.rs.ReadAtContext(ctx, r.PathValue("name"), off, n)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer v.Close()
	writeView(w, v)
}

// parseRange parses "i-j" into an inclusive block interval.
func parseRange(s string) (first, last int, ok bool) {
	dash := strings.IndexByte(s, '-')
	if dash <= 0 {
		return 0, 0, false
	}
	first, err1 := strconv.Atoi(s[:dash])
	last, err2 := strconv.Atoi(s[dash+1:])
	if err1 != nil || err2 != nil || first < 0 || first > last {
		return 0, 0, false
	}
	return first, last, true
}

// handleText streams the decompressed program as pipelined range
// windows instead of materializing it: the image's original size is
// known up front, so Content-Length still goes out before the first
// block decodes. A client that hangs up stops further window dispatches.
func (d *daemon) handleText(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := d.rs.Image(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(info.OrigSize))
	if _, err := d.rs.WriteTextContext(r.Context(), name, w); err != nil && !isNetworkWriteErr(err) {
		// Headers are gone; the short body is the client's error signal.
		log.Printf("text %s: %v", name, err)
	}
}

// isNetworkWriteErr reports whether the error came from writing the
// response (client gone) rather than from decoding.
func isNetworkWriteErr(err error) bool {
	return errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, context.Canceled)
}

// handleTrain trains the image's access profile: from a posted
// codecomp-trace text body when one is supplied, otherwise from the live
// trace ring. Responds with the profile summary.
func (d *daemon) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var prof *traceprof.Profile
	if len(body) > 0 {
		tr, err := traceprof.Parse(bytes.NewReader(body))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		prof, err = d.rs.TrainFrom(name, tr.Accesses)
		if err != nil {
			writeErr(w, err)
			return
		}
	} else if prof, err = d.rs.Train(name); err != nil {
		writeErr(w, err)
		return
	}
	log.Printf("codecompd: trained %q on %d accesses (%d unique blocks)",
		name, prof.Accesses, prof.UniqueBlocks())
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (d *daemon) handleProfile(w http.ResponseWriter, r *http.Request) {
	prof, err := d.rs.Profile(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := d.rs.TraceSnapshot(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tr.WriteTo(w) //nolint:errcheck — client went away
}

func (d *daemon) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := romserver.PolicySpec{Policy: q.Get("policy")}
	for _, f := range []struct {
		key string
		dst *int
	}{{"depth", &spec.Depth}, {"k", &spec.TopK}, {"pin", &spec.PinCount}} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": f.key + " must be an integer"})
				return
			}
			*f.dst = n
		}
	}
	info, err := d.rs.SetPolicy(r.PathValue("name"), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	log.Printf("codecompd: %q now serving with policy %s (%d pinned)", info.Image, info.Policy, info.Pinned)
	writeJSON(w, http.StatusOK, info)
}

func (d *daemon) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	info, err := d.rs.Policy(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleGetTiering reports a tiered image's tier populations, per-block
// assignments and effective recompression policy. 409 for single-codec
// images.
func (d *daemon) handleGetTiering(w http.ResponseWriter, r *http.Request) {
	info, err := d.rs.Tiering(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSetTiering installs a per-image tier policy — from a JSON policy
// body when one is posted, else from ?hot=&warm=&max_hot= query params
// (an empty PUT resets to the server defaults, the rollback path for a
// bad policy). With ?recompress=1 it then runs a synchronous
// recompression pass and returns its stats alongside the policy.
func (d *daemon) handleSetTiering(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	var p codecomp.TierPolicy
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &p); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "policy body: " + err.Error()})
			return
		}
	} else {
		for _, f := range []struct {
			key string
			dst *float64
		}{{"hot", &p.HotFraction}, {"warm", &p.WarmFraction}, {"max_hot", &p.MaxHotFraction}} {
			if v := q.Get(f.key); v != "" {
				frac, err := strconv.ParseFloat(v, 64)
				if err != nil {
					writeJSON(w, http.StatusBadRequest, map[string]string{"error": f.key + " must be a fraction"})
					return
				}
				*f.dst = frac
			}
		}
	}
	if err := d.rs.SetTierPolicy(name, p); err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{"image": name, "policy": p}
	if q.Get("recompress") != "" {
		st, err := d.rs.Recompress(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		log.Printf("codecompd: recompressed %q: %d/%d blocks migrated (%+d bytes, %d verify failures)",
			name, st.Migrated, st.Planned, st.BytesDelta, st.VerifyFailures)
		resp["pass"] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSetFaults installs a deterministic fault injector in front of one
// image's codec. Refused unless the daemon was started with
// -enable-fault-injection, so a production deployment cannot be chaos-
// tested by accident.
func (d *daemon) handleSetFaults(w http.ResponseWriter, r *http.Request) {
	if !d.faultsAllowed {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": "fault injection disabled; restart codecompd with -enable-fault-injection",
		})
		return
	}
	q := r.URL.Query()
	var opts faultinj.Options
	for _, f := range []struct {
		key string
		dst *float64
	}{{"bitflip", &opts.BitFlipRate}, {"transient", &opts.TransientRate}} {
		if v := q.Get(f.key); v != "" {
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || rate < 0 || rate > 1 {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": f.key + " must be a rate in [0,1]"})
				return
			}
			*f.dst = rate
		}
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "seed must be an integer"})
			return
		}
		opts.Seed = seed
	}
	if v := q.Get("latency_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "latency_ms must be a non-negative integer"})
			return
		}
		opts.Latency = time.Duration(ms) * time.Millisecond
	}
	var err error
	if opts.PanicBlocks, err = parseBlockList(q.Get("panic_blocks")); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "panic_blocks: " + err.Error()})
		return
	}
	if opts.ErrorBlocks, err = parseBlockList(q.Get("error_blocks")); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "error_blocks: " + err.Error()})
		return
	}
	name := r.PathValue("name")
	if err := d.rs.SetFaults(name, &opts); err != nil {
		writeErr(w, err)
		return
	}
	log.Printf("codecompd: fault injector on %q: bitflip=%g transient=%g panic=%v error=%v latency=%s seed=%d",
		name, opts.BitFlipRate, opts.TransientRate, opts.PanicBlocks, opts.ErrorBlocks, opts.Latency, opts.Seed)
	writeJSON(w, http.StatusOK, opts)
}

func parseBlockList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, errors.New("want comma-separated non-negative block indices")
		}
		out = append(out, n)
	}
	return out, nil
}

func (d *daemon) handleClearFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := d.rs.SetFaults(name, nil); err != nil {
		writeErr(w, err)
		return
	}
	log.Printf("codecompd: fault injector removed from %q", name)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is liveness: it answers 200 as long as the process can
// serve HTTP at all, and carries the readiness breakdown as payload so a
// human poking the endpoint sees degraded/quarantined images immediately.
func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready, images := d.rs.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"ready":          ready,
		"images":         len(d.rs.Images()),
		"health":         images,
		"uptime_seconds": time.Since(d.started).Seconds(),
	})
}

// handleReadyz is readiness: 503 while any image is quarantined, so a load
// balancer drains traffic from a replica serving a corrupted ROM without
// restarting it (liveness stays green and the re-verifier can heal it).
func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, images := d.rs.Health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "health": images})
}

// handleMetrics is content-negotiated: Prometheus text exposition by
// default, the legacy romserver JSON stats when the client asks for JSON
// (Accept: application/json or ?format=json — cmd/loadgen does the
// former).
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		writeJSON(w, http.StatusOK, d.rs.Stats())
		return
	}
	w.Header().Set("Content-Type", obsv.PrometheusContentType)
	d.reg.WritePrometheus(w) //nolint:errcheck — client went away
}

// handleTraces serves the sampled block-load trace ring, newest first.
// ?n= bounds how many traces are returned.
func (d *daemon) handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := d.tracer.Snapshot()
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "n must be a non-negative integer"})
			return
		}
		if n < len(recs) {
			recs = recs[:n]
		}
	}
	begun, done := d.tracer.Sampled()
	writeJSON(w, http.StatusOK, map[string]any{
		"sampled_begun": begun,
		"sampled_done":  done,
		"traces":        recs,
	})
}
