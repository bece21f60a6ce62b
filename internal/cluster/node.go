// A cluster node: one romserver.Server behind the core serving HTTP
// API, with write-through disk persistence and peer cache-fill. The
// node is what the router proxies to; cmd/codecompd mounts the same
// InternalAPI so a standalone daemon can be a cluster member too.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// InternalAPI is the cluster-internal face of one serving process: the
// compact HTTP endpoints peers and the router talk to (cache-only block
// reads, peer-table pushes) plus the peer cache-fill hook it installs
// into the romserver. Both cluster.Node and cmd/codecompd mount it, so
// a standalone daemon and a harness node speak the identical internal
// protocol.
type InternalAPI struct {
	rs          *romserver.Server
	fillTimeout time.Duration

	mu    sync.RWMutex
	peers map[string][]*client.Client // image name -> replica peers

	fillAttempts *obsv.Counter
	fillHits     *obsv.Counter
	fillErrors   *obsv.Counter
	peekRequests *obsv.Counter
	peekHits     *obsv.Counter
}

// NewInternalAPI registers the cluster_* node metrics on reg and returns
// the API ready to mount. The peer cache-fill hook goes on rs once
// SetPeers gives the node a peer (see SetPeers).
// fillTimeout bounds one peer probe (default 150ms) — a fill must stay
// much cheaper than the decompression it is trying to avoid.
func NewInternalAPI(rs *romserver.Server, reg *obsv.Registry, fillTimeout time.Duration) *InternalAPI {
	if fillTimeout <= 0 {
		fillTimeout = 150 * time.Millisecond
	}
	a := &InternalAPI{
		rs:          rs,
		fillTimeout: fillTimeout,
		peers:       make(map[string][]*client.Client),
		fillAttempts: reg.Counter("cluster_peer_fill_attempts_total",
			"Peer cache probes issued on local cache misses."),
		fillHits: reg.Counter("cluster_peer_fill_hits_total",
			"Local misses satisfied from a replica's hot cache (before sidecar verification; see romserver_peer_fills_total for the verified count)."),
		fillErrors: reg.Counter("cluster_peer_fill_errors_total",
			"Peer cache probes that failed (network error or unexpected status); clean peer misses are not errors."),
		peekRequests: reg.Counter("cluster_cached_peek_requests_total",
			"Cache-only block requests served to peers (/internal/images/{name}/cached/{i})."),
		peekHits: reg.Counter("cluster_cached_peek_hits_total",
			"Cache-only peer requests answered from the local cache."),
	}
	reg.GaugeFunc("cluster_peer_images",
		"Images with a configured peer set (fill candidates).",
		func() float64 {
			a.mu.RLock()
			n := len(a.peers)
			a.mu.RUnlock()
			return float64(n)
		})
	return a
}

// Mount adds the internal endpoints to mux. instrument wraps each
// handler for per-route metrics; pass nil to mount bare.
func (a *InternalAPI) Mount(mux *http.ServeMux, instrument func(route string, h http.HandlerFunc) http.HandlerFunc) {
	wrap := instrument
	if wrap == nil {
		wrap = func(_ string, h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("GET /internal/images/{name}/cached/{i}", wrap("internal_cached", a.HandleCached))
	mux.HandleFunc("PUT /internal/peers", wrap("internal_peers", a.HandlePeers))
}

// fill is the romserver.FillFunc: ask each replica peer's cache for the
// block, first answer wins. The romserver verifies whatever comes back
// against the local integrity sidecar, so this function only has to be
// fast, not trusted.
func (a *InternalAPI) fill(image string, block int) ([]byte, bool) {
	a.mu.RLock()
	peers := a.peers[image]
	a.mu.RUnlock()
	if len(peers) == 0 {
		return nil, false
	}
	hc := &http.Client{Timeout: a.fillTimeout}
	for _, p := range peers {
		a.fillAttempts.Inc()
		probe := client.New(p.Base, hc)
		data, err := probe.CachedBlock(image, block)
		if err == nil {
			a.fillHits.Inc()
			return data, true
		}
		if !errors.Is(err, client.ErrNotCached) {
			a.fillErrors.Inc()
		}
	}
	return nil, false
}

// SetPeers replaces the peer table: for each image, the base URLs of
// its replica peers. The fill hook is installed on the romserver only
// while the table is non-empty, so a node without peers pays no fill
// call, and no clock reading for one, on its misses.
func (a *InternalAPI) SetPeers(peers map[string][]string) {
	next := make(map[string][]*client.Client, len(peers))
	for img, addrs := range peers {
		cs := make([]*client.Client, 0, len(addrs))
		for _, addr := range addrs {
			cs = append(cs, client.New(addr, nil))
		}
		next[img] = cs
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.peers = next
	if len(next) > 0 {
		a.rs.SetFillHook(a.fill)
	} else {
		a.rs.SetFillHook(nil)
	}
}

// HandleCached serves GET /internal/images/{name}/cached/{i}: the block
// bytes with 200 if cached, 204 if not (a clean miss), 404 for an
// unknown image. It never decompresses.
func (a *InternalAPI) HandleCached(w http.ResponseWriter, r *http.Request) {
	a.peekRequests.Inc()
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "block index must be an integer"})
		return
	}
	data, ok, err := a.rs.CachedBlock(r.PathValue("name"), i)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, romserver.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	a.peekHits.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck — client went away
}

// HandlePeers serves PUT /internal/peers: a JSON object mapping image
// names to replica peer base URLs, replacing the whole table.
func (a *InternalAPI) HandlePeers(w http.ResponseWriter, r *http.Request) {
	var peers map[string][]string
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&peers); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	a.SetPeers(peers)
	w.WriteHeader(http.StatusNoContent)
}

// NodeOptions configures one cluster node.
type NodeOptions struct {
	// Name identifies the node in logs and ring membership.
	Name string
	// DataDir is where registered images persist; required — a cluster
	// node that forgets its images on restart defeats rebalancing.
	DataDir string
	// Server tunes the underlying romserver (zero values take its
	// defaults). Registry and Tracer are overridden by the node.
	Server romserver.Options
	// FillTimeout bounds one peer cache probe (default 150ms).
	FillTimeout time.Duration
	// MaxImageBytes caps one upload (default 64 MiB).
	MaxImageBytes int64
	// Logf receives node log lines; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is one cluster member: a romserver with persistence, peer fill
// and the core + internal HTTP API. Construct with NewNode, serve
// Handler(), Close when done.
type Node struct {
	name  string
	rs    *romserver.Server
	st    *Store
	api   *InternalAPI
	reg   *obsv.Registry
	mux   *http.ServeMux
	maxIm int64
	logf  func(format string, args ...any)

	// regMu serializes registration/removal with their store
	// write-through so a concurrent add+delete cannot leave disk and
	// registry disagreeing.
	regMu sync.Mutex
}

// NewNode builds the node, recovers every image persisted under
// DataDir into the registry, and starts serving state. Recovery errors
// on individual images are logged, not fatal — the router re-registers
// anything missing.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	st, err := OpenStore(opts.DataDir)
	if err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	reg := obsv.NewRegistry()
	sopts := opts.Server
	sopts.Registry = reg
	sopts.Tracer = nil
	n := &Node{
		name:  opts.Name,
		rs:    romserver.New(sopts),
		st:    st,
		reg:   reg,
		maxIm: opts.MaxImageBytes,
		logf:  logf,
	}
	if n.maxIm <= 0 {
		n.maxIm = 64 << 20
	}
	n.api = NewInternalAPI(n.rs, reg, opts.FillTimeout)
	recovered := reg.Counter("cluster_store_recovered_images_total",
		"Images recovered from the data dir into the registry at boot.")
	recoverErrs := reg.Counter("cluster_store_recover_errors_total",
		"Images that failed recovery at boot (corrupt payload, bad manifest, rejected registration).")

	imgs, errs := st.Load()
	for _, e := range errs {
		recoverErrs.Inc()
		logf("cluster node %s: store: %v", n.name, e)
	}
	for _, im := range imgs {
		if _, err := n.rs.AddImage(im.Name, im.Payload); err != nil {
			recoverErrs.Inc()
			logf("cluster node %s: recovering %q: %v", n.name, im.Name, err)
			continue
		}
		recovered.Inc()
	}
	if len(imgs) > 0 {
		logf("cluster node %s: recovered %d image(s) from %s", n.name, len(imgs), st.Dir())
	}
	n.buildMux()
	return n, nil
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

// buildMux wires the core serving API — deliberately the same routes
// and verbs as cmd/codecompd, so the router and loadgen cannot tell a
// harness node from a real daemon.
func (n *Node) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /images", n.handleUpload)
	mux.HandleFunc("GET /images", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.rs.Images())
	})
	mux.HandleFunc("GET /images/{name}", func(w http.ResponseWriter, r *http.Request) {
		info, err := n.rs.Image(r.PathValue("name"))
		if err != nil {
			writeNodeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /images/{name}", n.handleDelete)
	mux.HandleFunc("GET /images/{name}/blocks/{i}", n.handleBlock)
	mux.HandleFunc("GET /images/{name}/bytes", n.handleBytes)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ready, images := n.rs.Health()
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "node": n.name, "ready": ready, "health": images})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, images := n.rs.Health()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"ready": ready, "health": images})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
			writeJSON(w, http.StatusOK, n.rs.Stats())
			return
		}
		w.Header().Set("Content-Type", obsv.PrometheusContentType)
		n.reg.WritePrometheus(w) //nolint:errcheck — client went away
	})
	n.api.Mount(mux, nil)
	n.mux = mux
}

func (n *Node) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?name="})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, n.maxIm)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	n.regMu.Lock()
	defer n.regMu.Unlock()
	info, err := n.rs.AddImage(name, data)
	if err != nil {
		if errors.Is(err, romserver.ErrClosed) {
			writeNodeErr(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
		return
	}
	// Write-through: the image is not durably registered until it is on
	// disk. A failed save rolls the registration back so the node never
	// claims an image a restart would lose.
	if err := n.st.Save(name, data); err != nil {
		n.rs.RemoveImage(name) //nolint:errcheck — best-effort rollback
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	n.logf("cluster node %s: registered %q (%s, %d blocks)", n.name, name, info.Format, info.Blocks)
	writeJSON(w, http.StatusCreated, info)
}

// handleBytes is the node-side sub-block read surface, same contract
// as codecompd's: leased cached blocks stream via the view's WriteTo, a
// mid-block tail partially decodes, and the amortization stats travel
// back as X-Range-* / X-Decoded-Bytes headers. The response is flushed
// before the deferred Close inserts the decoded blocks into the cache.
func (n *Node) handleBytes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	off, err1 := strconv.Atoi(q.Get("off"))
	ln, err2 := strconv.Atoi(q.Get("len"))
	if err1 != nil || err2 != nil || off < 0 || ln < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "off and len must be non-negative integers"})
		return
	}
	ctx, cancel, err := overload.WithDeadlineHeader(r.Context(), r.Header.Get(overload.DeadlineHeader))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	defer cancel()
	v, err := n.rs.ReadAtContext(ctx, r.PathValue("name"), off, ln)
	if err != nil {
		writeNodeErr(w, err)
		return
	}
	defer v.Close()
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

func (n *Node) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if err := n.rs.RemoveImage(name); err != nil {
		writeNodeErr(w, err)
		return
	}
	if err := n.st.Remove(name); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleBlock(w http.ResponseWriter, r *http.Request) {
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
	data, hit, err := n.rs.BlockContext(ctx, r.PathValue("name"), i)
	if err != nil {
		writeNodeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(data) //nolint:errcheck — client went away
}

// writeNodeErr maps romserver errors onto HTTP statuses the same way
// cmd/codecompd does: overload rejections are 429 (admission) or 503
// (brownout) with Retry-After, a propagated-deadline expiry is 504.
func writeNodeErr(w http.ResponseWriter, err error) {
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
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client went away
}
