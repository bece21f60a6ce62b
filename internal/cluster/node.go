// A cluster node: one romserver.Server behind the full serving HTTP
// API, with optional write-through disk persistence. The node is what
// the router proxies to, and cmd/codecompd is one node built from its
// flags.
package cluster

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"codecomp/internal/obsv"
	"codecomp/internal/romserver"
)

// DefaultMaxImageBytes is the largest upload or posted trace a node
// accepts by default (64 MiB), and the router's fixed upload cap.
const DefaultMaxImageBytes = 64 << 20

// NodeOptions configures one node.
type NodeOptions struct {
	// Name identifies the node in logs, /healthz and ring membership.
	Name string
	// DataDir is where registered images persist and are recovered from
	// at boot. Empty keeps the node memory-only, so a restart forgets
	// its images; cluster members set it because a node that forgets
	// its images on restart defeats rebalancing.
	DataDir string
	// Server tunes the underlying romserver (zero values take its
	// defaults). Registry is overridden by the node. With a DataDir,
	// Tiering gets Persist set to the store's Save, so tier migrations
	// reach the disk; a nil Tiering still runs no background pass.
	Server romserver.Options
	// MaxImageBytes caps one upload or posted trace (default
	// DefaultMaxImageBytes).
	MaxImageBytes int64
	// AllowFaults enables PUT /images/{name}/faults. Without it the
	// route answers 403, so a production node cannot be chaos-tested by
	// accident.
	AllowFaults bool
	// Logf receives node log lines; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is one serving process: a romserver with optional persistence
// and the HTTP API below. Construct with NewNode, serve Handler(),
// Close when done. Every route is instrumented with the
// codecompd_http_* metrics.
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
//	DELETE /images/{name}        deregister an image (and forget it on disk)
//	GET  /healthz                liveness (always 200 while the process serves)
//	GET  /readyz                 readiness (503 while any image is quarantined)
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/traces           ring of recently sampled block-load traces
//	                             (queue wait / decode / verify phases, retry
//	                             and corruption events), newest first
//
// Faultlab (chaos testing, only with AllowFaults):
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
//	PUT  /images/{name}/policy?policy=markov&k=2&depth=4
//	                             switch prefetch policy (sequential|markov)
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
type Node struct {
	name    string
	rs      *romserver.Server
	st      *Store // nil when memory-only
	reg     *obsv.Registry
	mux     *http.ServeMux
	maxIm   int64
	faults  bool
	started time.Time
	logf    func(format string, args ...any)

	// regMu serializes registration/removal with their store
	// write-through so a concurrent add+delete cannot leave disk and
	// registry disagreeing.
	regMu sync.Mutex

	// HTTP-layer instruments; the per-route series are resolved at route
	// registration, not per request.
	httpInflight *obsv.Gauge
	httpRequests *obsv.CounterVec
	httpErrors   *obsv.CounterVec
	httpLatency  *obsv.HistogramVec
}

// NewNode builds the node, recovers every image persisted under
// DataDir into the registry, and starts serving state. Recovery errors
// on individual images are logged, not fatal — the router re-registers
// anything missing.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	reg := obsv.NewRegistry()
	sopts := opts.Server
	sopts.Registry = reg
	var st *Store
	if opts.DataDir != "" {
		var err error
		if st, err = OpenStore(opts.DataDir); err != nil {
			return nil, err
		}
		tiering := romserver.TieringOptions{Interval: -1}
		if sopts.Tiering != nil {
			tiering = *sopts.Tiering
		}
		tiering.Persist = st.Save
		sopts.Tiering = &tiering
	}
	n := &Node{
		name:    opts.Name,
		rs:      romserver.New(sopts),
		st:      st,
		reg:     reg,
		maxIm:   opts.MaxImageBytes,
		faults:  opts.AllowFaults,
		started: time.Now(),
		logf:    logf,
		httpInflight: reg.Gauge("codecompd_http_inflight",
			"HTTP requests currently being served."),
		httpRequests: reg.CounterVec("codecompd_http_requests_total",
			"HTTP requests served, by route.", "route"),
		httpErrors: reg.CounterVec("codecompd_http_errors_total",
			"HTTP responses with status >= 400, by route.", "route"),
		httpLatency: reg.HistogramVec("codecompd_http_request_seconds",
			"HTTP request latency, by route.", "route"),
	}
	if n.maxIm <= 0 {
		n.maxIm = DefaultMaxImageBytes
	}
	if st != nil {
		n.recoverStore()
	}
	n.buildMux()
	return n, nil
}

// recoverStore re-registers every image in the store.
func (n *Node) recoverStore() {
	recovered := n.reg.Counter("cluster_store_recovered_images_total",
		"Images recovered from the data dir into the registry at boot.")
	recoverErrs := n.reg.Counter("cluster_store_recover_errors_total",
		"Images that failed recovery at boot (unreadable file or rejected registration).")
	imgs, errs := n.st.Load()
	for _, e := range errs {
		recoverErrs.Inc()
		n.logf("cluster node %s: store: %v", n.name, e)
	}
	for _, im := range imgs {
		if _, err := n.rs.AddImage(im.Name, im.Payload); err != nil {
			recoverErrs.Inc()
			n.logf("cluster node %s: recovering %q: %v", n.name, im.Name, err)
			continue
		}
		recovered.Inc()
	}
	if got := recovered.Value(); got > 0 {
		n.logf("cluster node %s: recovered %d image(s) from %s", n.name, got, n.st.Dir())
	}
}

// Name returns the node's ring name.
func (n *Node) Name() string { return n.name }

// Handler returns the node's HTTP API.
func (n *Node) Handler() http.Handler { return n.mux }

// Server exposes the underlying romserver (tests and the harness use
// it).
func (n *Node) Server() *romserver.Server { return n.rs }

// Registry exposes the node's metrics registry.
func (n *Node) Registry() *obsv.Registry { return n.reg }

// Close drains the underlying romserver.
func (n *Node) Close() error { return n.rs.Close() }
