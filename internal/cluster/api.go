// The node's HTTP API: the route table, its per-route instrumentation,
// the handlers, and the one mapping from romserver errors to statuses.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"codecomp"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// buildMux wires the routes listed on Node, each wrapped by instrument.
func (n *Node) buildMux() {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, n.instrument(route, h))
	}
	handle("POST /images", "upload", n.maxBody(n.handleUpload))
	handle("GET /images", "list", n.handleList)
	handle("GET /images/{name}", "image", n.handleImage)
	handle("DELETE /images/{name}", "delete", n.handleDelete)
	handle("GET /images/{name}/blocks/{i}", "block", n.handleBlock)
	handle("GET /images/{name}/blocks", "range", n.handleRange)
	handle("GET /images/{name}/bytes", "bytes", n.handleBytes)
	handle("GET /images/{name}/text", "text", n.handleText)
	handle("POST /images/{name}/train", "train", n.maxBody(n.handleTrain))
	handle("GET /images/{name}/profile", "profile", n.handleProfile)
	handle("GET /images/{name}/trace", "trace", n.handleTrace)
	handle("PUT /images/{name}/policy", "set_policy", n.handleSetPolicy)
	handle("GET /images/{name}/policy", "get_policy", n.handleGetPolicy)
	handle("GET /images/{name}/tiering", "get_tiering", n.handleGetTiering)
	handle("PUT /images/{name}/tiering", "set_tiering", n.handleSetTiering)
	handle("PUT /images/{name}/faults", "set_faults", n.handleSetFaults)
	handle("DELETE /images/{name}/faults", "clear_faults", n.handleClearFaults)
	handle("GET /healthz", "healthz", n.handleHealthz)
	handle("GET /readyz", "readyz", n.handleReadyz)
	handle("GET /metrics", "metrics", n.handleMetrics)
	handle("GET /debug/traces", "debug_traces", n.handleTraces)
	n.mux = mux
}

// statusWriter captures the response status for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write records an implicit 200 before delegating.
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
func (n *Node) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := n.httpRequests.With(route)
	errs := n.httpErrors.With(route)
	lat := n.httpLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		n.httpInflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		n.httpInflight.Add(-1)
		lat.Observe(time.Since(start))
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

func (n *Node) maxBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, n.maxIm)
		h(w, r)
	}
}

// writeJSON writes v as indented JSON with the given status.
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

func (n *Node) handleUpload(w http.ResponseWriter, r *http.Request) {
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
	n.regMu.Lock()
	defer n.regMu.Unlock()
	info, err := n.rs.AddImage(name, data)
	if err != nil {
		if errors.Is(err, romserver.ErrClosed) {
			writeErr(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
		return
	}
	if n.st != nil {
		// Write-through: the image is not durably registered until it is
		// on disk. A failed save rolls the registration back so the node
		// never claims an image a restart would lose.
		if err := n.st.Save(name, data); err != nil {
			n.rs.RemoveImage(name) //nolint:errcheck — best-effort rollback
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	n.logf("cluster node %s: registered %q (%s, %d blocks, ratio %.4f)", n.name, name, info.Format, info.Blocks, info.Ratio)
	writeJSON(w, http.StatusCreated, info)
}

func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.rs.Images())
}

func (n *Node) handleImage(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Image(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDelete removes an image from the store, then deregisters it. A
// failed store removal is a 500 and leaves the image registered:
// leftovers on disk can bring it back at the next restart, so the client
// must not be told it is gone, and a retried DELETE must find the image
// and try the removal again.
func (n *Node) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if n.st != nil {
		if err := n.st.Remove(name); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	if err := n.rs.RemoveImage(name); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleBlock(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, i, ok := parseBlockRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	data, hit, err := n.rs.BlockContext(ctx, r.PathValue("name"), i)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBlock(w, data, hit)
}

// The block and byte-window routes are served by both a node and the
// router in front of it; the helpers below are their one request parser
// and one response writer, so the two cannot drift apart.

// parseBlockRequest reads GET .../blocks/{i}: the block index and the
// context bound to the propagated deadline header. A malformed request
// is answered 400 here and ok is false; otherwise the caller must call
// cancel.
func parseBlockRequest(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, i int, ok bool) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "block index must be an integer"})
		return nil, nil, 0, false
	}
	ctx, cancel, ok = requestDeadline(w, r)
	return ctx, cancel, i, ok
}

// parseBytesRequest reads GET .../bytes?off=&len= like parseBlockRequest.
func parseBytesRequest(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, off, n int, ok bool) {
	q := r.URL.Query()
	off, err1 := strconv.Atoi(q.Get("off"))
	n, err2 := strconv.Atoi(q.Get("len"))
	if err1 != nil || err2 != nil || off < 0 || n < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "off and len must be non-negative integers"})
		return nil, nil, 0, 0, false
	}
	ctx, cancel, ok = requestDeadline(w, r)
	return ctx, cancel, off, n, ok
}

// requestDeadline binds the request context to its X-Deadline-Ms header;
// an invalid header is the caller's fault (400).
func requestDeadline(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	ctx, cancel, err := overload.WithDeadlineHeader(r.Context(), r.Header.Get(overload.DeadlineHeader))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return nil, nil, false
	}
	return ctx, cancel, true
}

// writeBlock sends one block with the serving cache's X-Cache verdict.
func writeBlock(w http.ResponseWriter, data []byte, hit bool) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(data) //nolint:errcheck — client went away
}

// setRangeHeaders writes the headers of a range or byte-window body of
// length bytes: how the read was served as X-Range-*, and the codec
// output it paid for as X-Decoded-Bytes.
func setRangeHeaders(h http.Header, length int, st romserver.RangeStats, decoded int) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(length))
	h.Set("X-Range-Blocks", strconv.Itoa(st.Blocks))
	h.Set("X-Range-Cached", strconv.Itoa(st.CachedBlocks))
	h.Set("X-Range-Dispatches", strconv.Itoa(st.Dispatches))
	h.Set("X-Range-Decoded", strconv.Itoa(st.DecodedBlocks))
	h.Set("X-Decoded-Bytes", strconv.Itoa(decoded))
}

// handleRange serves GET /images/{name}/blocks?range=i-j through the
// batched decode path: one worker-pool ticket per contiguous miss-run
// instead of one per block. The decoded blocks land in the cache when
// the view is closed, after the response is flushed. The amortization
// stats travel back as X-Range-* headers so callers (loadgen's range
// arm, ops curl) can see how the read was served without parsing a JSON
// envelope around the binary payload. The read honours X-Deadline-Ms
// and the client's cancellation, as /bytes does.
func (n *Node) handleRange(w http.ResponseWriter, r *http.Request) {
	first, last, ok := parseRange(r.URL.Query().Get("range"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "range must be i-j with 0 <= i <= j"})
		return
	}
	ctx, cancel, ok := requestDeadline(w, r)
	if !ok {
		return
	}
	defer cancel()
	v, err := n.rs.RangeView(ctx, r.PathValue("name"), first, last)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer v.Close()
	writeView(w, v)
}

// writeView sends a zero-copy view as the response body: stats as
// X-Range-* headers, then the parts written through the view's WriteTo
// — no concatenation buffer on the node side. It flushes the response
// before returning, so the client has every byte before the caller's
// deferred Close inserts the view's decoded blocks into the cache.
func writeView(w http.ResponseWriter, v *romserver.View) {
	setRangeHeaders(w.Header(), v.Len(), v.Stats(), v.DecodedBytes())
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
func (n *Node) handleBytes(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, off, ln, ok := parseBytesRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	v, err := n.rs.ReadAtContext(ctx, r.PathValue("name"), off, ln)
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
func (n *Node) handleText(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel, ok := requestDeadline(w, r)
	if !ok {
		return
	}
	defer cancel()
	info, err := n.rs.Image(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(info.OrigSize))
	sent, err := n.rs.WriteTextContext(ctx, name, w)
	switch {
	case err == nil || isNetworkWriteErr(err):
	case sent == 0:
		// Nothing has gone out, so the error still gets its status rather
		// than a 200 whose declared body never comes.
		h.Del("Content-Length")
		writeErr(w, err)
	default:
		// Headers are gone; the short body is the client's error signal.
		n.logf("cluster node %s: text %s: %v", n.name, name, err)
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
func (n *Node) handleTrain(w http.ResponseWriter, r *http.Request) {
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
		prof, err = n.rs.TrainFrom(name, tr.Accesses)
		if err != nil {
			writeErr(w, err)
			return
		}
	} else if prof, err = n.rs.Train(name); err != nil {
		writeErr(w, err)
		return
	}
	n.logf("cluster node %s: trained %q on %d accesses (%d unique blocks)",
		n.name, name, prof.Accesses, prof.UniqueBlocks())
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (n *Node) handleProfile(w http.ResponseWriter, r *http.Request) {
	prof, err := n.rs.Profile(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := n.rs.TraceSnapshot(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tr.WriteTo(w) //nolint:errcheck — client went away
}

func (n *Node) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := romserver.PolicySpec{Policy: q.Get("policy")}
	for _, f := range []struct {
		key string
		dst *int
	}{{"depth", &spec.Depth}, {"k", &spec.TopK}} {
		if v := q.Get(f.key); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": f.key + " must be an integer"})
				return
			}
			*f.dst = k
		}
	}
	info, err := n.rs.SetPolicy(r.PathValue("name"), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	n.logf("cluster node %s: %q now serving with policy %s", n.name, info.Image, info.Policy)
	writeJSON(w, http.StatusOK, info)
}

func (n *Node) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Policy(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleGetTiering reports a tiered image's tier populations, per-block
// assignments and effective recompression policy. 409 for single-codec
// images.
func (n *Node) handleGetTiering(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Tiering(r.PathValue("name"))
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
func (n *Node) handleSetTiering(w http.ResponseWriter, r *http.Request) {
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
	if err := n.rs.SetTierPolicy(name, p); err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{"image": name, "policy": p}
	if q.Get("recompress") != "" {
		st, err := n.rs.Recompress(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		n.logf("cluster node %s: recompressed %q: %d/%d blocks migrated (%+d bytes, %d verify failures)",
			n.name, name, st.Migrated, st.Planned, st.BytesDelta, st.VerifyFailures)
		resp["pass"] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSetFaults installs a deterministic fault injector in front of one
// image's codec. Refused unless the node allows faults (codecompd's
// -enable-fault-injection), so a production deployment cannot be chaos-
// tested by accident.
func (n *Node) handleSetFaults(w http.ResponseWriter, r *http.Request) {
	if !n.faults {
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
	if err := n.rs.SetFaults(name, &opts); err != nil {
		writeErr(w, err)
		return
	}
	n.logf("cluster node %s: fault injector on %q: bitflip=%g transient=%g panic=%v error=%v latency=%s seed=%d",
		n.name, name, opts.BitFlipRate, opts.TransientRate, opts.PanicBlocks, opts.ErrorBlocks, opts.Latency, opts.Seed)
	writeJSON(w, http.StatusOK, opts)
}

func parseBlockList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 0 {
			return nil, errors.New("want comma-separated non-negative block indices")
		}
		out = append(out, k)
	}
	return out, nil
}

func (n *Node) handleClearFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := n.rs.SetFaults(name, nil); err != nil {
		writeErr(w, err)
		return
	}
	n.logf("cluster node %s: fault injector removed from %q", n.name, name)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is liveness: it answers 200 as long as the process can
// serve HTTP at all, and carries the readiness breakdown as payload so a
// human poking the endpoint sees degraded/quarantined images immediately.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready, images := n.rs.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"node":           n.name,
		"ready":          ready,
		"images":         len(n.rs.Images()),
		"health":         images,
		"uptime_seconds": time.Since(n.started).Seconds(),
	})
}

// handleReadyz is readiness: 503 while any image is quarantined, so a load
// balancer drains traffic from a replica serving a corrupted ROM without
// restarting it (liveness stays green and the re-verifier can heal it).
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, images := n.rs.Health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "health": images})
}

// handleMetrics serves the registry in the Prometheus text exposition,
// whatever the request asks for.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obsv.PrometheusContentType)
	n.reg.WritePrometheus(w) //nolint:errcheck — client went away
}

// handleTraces serves the sampled block-load trace ring, newest first.
// ?n= bounds how many traces are returned. A node without a tracer
// serves an empty ring.
func (n *Node) handleTraces(w http.ResponseWriter, r *http.Request) {
	tracer := n.rs.Tracer()
	recs := tracer.Snapshot()
	if v := r.URL.Query().Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "n must be a non-negative integer"})
			return
		}
		if k < len(recs) {
			recs = recs[:k]
		}
	}
	begun, done := tracer.Sampled()
	writeJSON(w, http.StatusOK, map[string]any{
		"sampled_begun": begun,
		"sampled_done":  done,
		"traces":        recs,
	})
}
