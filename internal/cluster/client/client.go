// Package client is the one HTTP client for the codecompd serving API
// (/images, /images/{name}/blocks/{i}, /metrics, health probes). The
// router's proxy path, the drills and cmd/loadgen all speak this API;
// before this package each grew its own request/parse code, and the
// copies had already started to disagree on error handling. A Client
// is cheap (one struct), safe for concurrent use, and shares its
// underlying http.Client connection pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// StatusError is a non-2xx HTTP response. Callers that care whether a
// failure means "the node is unreachable" (transport error) or "the
// node answered, just not with what we wanted" (StatusError) — the
// router's health accounting, for one — unwrap with errors.As.
type StatusError struct {
	// What describes the request for the error string.
	What string
	// Code is the HTTP status.
	Code int
	// Body is the trimmed response body.
	Body string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// set on overload rejections (429, brownout 503) so callers can back
	// off for the server's estimate instead of guessing.
	RetryAfter time.Duration
}

// Error renders the status failure.
func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.What, e.Code, e.Body)
}

// Client talks to one codecompd node or cluster router by base URL.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8077".
	Base string
	// HTTP is the underlying client; nil uses a shared default with a
	// 30s request timeout.
	HTTP *http.Client
}

// defaultHTTP is shared across Clients constructed without an explicit
// http.Client, so they pool connections together.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// New returns a client for the server at base. hc may be nil.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = defaultHTTP
	}
	return &Client{Base: base, HTTP: hc}
}

// do issues req and reads the whole body; the caller judges the status.
func (c *Client) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// statusErr folds a non-OK response into a *StatusError.
func statusErr(what string, status int, body []byte) error {
	return &StatusError{What: what, Code: status, Body: string(bytes.TrimSpace(body))}
}

// retryStatusErr is statusErr for the read routes, whose overload
// rejections carry a Retry-After hint.
func retryStatusErr(what string, resp *http.Response, body []byte) error {
	se := &StatusError{What: what, Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	return se
}

// send issues a request with an optional body and fails any status
// other than want with a *StatusError naming what.
func (c *Client) send(method, path, what string, body io.Reader, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	resp, data, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, statusErr(what, resp.StatusCode, data)
	}
	return data, nil
}

// read GETs path on one of the read routes, bound to ctx and with ctx's
// remaining deadline in the X-Deadline-Ms header, and returns a 200
// answer's body and headers. Any other status is a *StatusError naming
// what, with the server's Retry-After hint.
func (c *Client) read(ctx context.Context, path, what string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	if v := overload.HeaderValue(ctx); v != "" {
		req.Header.Set(overload.DeadlineHeader, v)
	}
	resp, body, err := c.do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, retryStatusErr(what, resp, body)
	}
	return body, resp.Header, nil
}

// getJSON GETs path and decodes its 200 JSON body into v.
func (c *Client) getJSON(path, what string, v any) error {
	body, err := c.send(http.MethodGet, path, what, nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Upload registers a marshaled image under name (POST /images?name=)
// and returns the server's metadata for it.
func (c *Client) Upload(name string, payload []byte) (romserver.ImageInfo, error) {
	var info romserver.ImageInfo
	req, err := http.NewRequest(http.MethodPost, c.Base+"/images?name="+name, bytes.NewReader(payload))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, body, err := c.do(req)
	if err != nil {
		return info, err
	}
	if resp.StatusCode != http.StatusCreated {
		return info, statusErr("upload "+name, resp.StatusCode, body)
	}
	err = json.Unmarshal(body, &info)
	return info, err
}

// Delete deregisters an image (DELETE /images/{name}). Deleting an
// image the server does not have returns an error wrapping the server's
// 404 body.
func (c *Client) Delete(name string) error {
	_, err := c.send(http.MethodDelete, "/images/"+name, "delete "+name, nil, http.StatusNoContent)
	return err
}

// Images lists the server's registered images.
func (c *Client) Images() ([]romserver.ImageInfo, error) {
	var infos []romserver.ImageInfo
	err := c.getJSON("/images", "list images", &infos)
	return infos, err
}

// Image returns one image's metadata.
func (c *Client) Image(name string) (romserver.ImageInfo, error) {
	var info romserver.ImageInfo
	err := c.getJSON("/images/"+name, "image "+name, &info)
	return info, err
}

// Block fetches one decompressed block. hit reports the server's
// X-Cache header ("hit" on a cache hit; through the router this is the
// serving replica's cache verdict).
func (c *Client) Block(name string, i int) (data []byte, hit bool, err error) {
	return c.BlockContext(context.Background(), name, i)
}

// BlockContext is Block with end-to-end deadline propagation: the
// request is bound to ctx, and ctx's remaining deadline rides the
// X-Deadline-Ms header so the far side's admission control can reject
// doomed work before it queues. A non-2xx answer is a *StatusError;
// overload rejections carry the server's Retry-After hint in it.
func (c *Client) BlockContext(ctx context.Context, name string, i int) (data []byte, hit bool, err error) {
	data, h, err := c.read(ctx, fmt.Sprintf("/images/%s/blocks/%d", name, i), fmt.Sprintf("block %d of %s", i, name))
	if err != nil {
		return nil, false, err
	}
	return data, h.Get("X-Cache") == "hit", nil
}

// Range fetches blocks [first,last] through the server's batched decode
// path (GET /images/{name}/blocks?range=first-last), with deadline
// propagation like BlockContext, and reports how the read was served,
// parsed back from the X-Range-* headers.
func (c *Client) Range(ctx context.Context, name string, first, last int) ([]byte, romserver.RangeStats, error) {
	body, h, err := c.read(ctx, fmt.Sprintf("/images/%s/blocks?range=%d-%d", name, first, last),
		fmt.Sprintf("range %d-%d of %s", first, last, name))
	if err != nil {
		return nil, romserver.RangeStats{}, err
	}
	return body, rangeStats(h), nil
}

// rangeStats parses how a range or byte-window read was served from its
// X-Range-* headers.
func rangeStats(h http.Header) romserver.RangeStats {
	var st romserver.RangeStats
	st.Blocks, _ = strconv.Atoi(h.Get("X-Range-Blocks"))
	st.CachedBlocks, _ = strconv.Atoi(h.Get("X-Range-Cached"))
	st.Dispatches, _ = strconv.Atoi(h.Get("X-Range-Dispatches"))
	st.DecodedBlocks, _ = strconv.Atoi(h.Get("X-Range-Decoded"))
	return st
}

// ReadBytes fetches n decompressed bytes at byte offset off; see
// ReadBytesContext.
func (c *Client) ReadBytes(name string, off, n int) ([]byte, romserver.RangeStats, int, error) {
	return c.ReadBytesContext(context.Background(), name, off, n)
}

// ReadBytesContext fetches n decompressed bytes at absolute byte offset
// off through the server's sub-block path (GET /images/{name}/bytes?
// off=&len=), with deadline propagation like BlockContext. It returns
// how the read was served (X-Range-* headers) and how many bytes of
// codec output the server decoded for it (X-Decoded-Bytes — zero for a
// fully cached read, less than the covering blocks' total when the
// tail was partially decoded).
func (c *Client) ReadBytesContext(ctx context.Context, name string, off, n int) ([]byte, romserver.RangeStats, int, error) {
	body, h, err := c.read(ctx, fmt.Sprintf("/images/%s/bytes?off=%d&len=%d", name, off, n),
		fmt.Sprintf("bytes [%d,%d) of %s", off, off+n, name))
	if err != nil {
		return nil, romserver.RangeStats{}, 0, err
	}
	decoded, _ := strconv.Atoi(h.Get("X-Decoded-Bytes"))
	return body, rangeStats(h), decoded, nil
}

// SetFaults installs a deterministic fault injector in front of an
// image's codec (PUT /images/{name}/faults). Options.Hook does not
// travel. A node started without fault injection answers 403.
func (c *Client) SetFaults(name string, opts faultinj.Options) error {
	q := url.Values{}
	q.Set("bitflip", strconv.FormatFloat(opts.BitFlipRate, 'g', -1, 64))
	q.Set("transient", strconv.FormatFloat(opts.TransientRate, 'g', -1, 64))
	q.Set("seed", strconv.FormatInt(opts.Seed, 10))
	if opts.Latency > 0 {
		q.Set("latency_ms", strconv.FormatInt(opts.Latency.Milliseconds(), 10))
	}
	for key, blocks := range map[string][]int{"panic_blocks": opts.PanicBlocks, "error_blocks": opts.ErrorBlocks} {
		list := make([]string, len(blocks))
		for i, b := range blocks {
			list[i] = strconv.Itoa(b)
		}
		if len(list) > 0 {
			q.Set(key, strings.Join(list, ","))
		}
	}
	_, err := c.send(http.MethodPut, "/images/"+name+"/faults?"+q.Encode(), "set faults on "+name, nil, http.StatusOK)
	return err
}

// ClearFaults removes an image's fault injector
// (DELETE /images/{name}/faults).
func (c *Client) ClearFaults(name string) error {
	_, err := c.send(http.MethodDelete, "/images/"+name+"/faults", "clear faults on "+name, nil, http.StatusNoContent)
	return err
}

// Train trains an image's access profile on a block trace
// (POST /images/{name}/train).
func (c *Client) Train(name string, tr *traceprof.Trace) error {
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return err
	}
	_, err := c.send(http.MethodPost, "/images/"+name+"/train", "train "+name, &buf, http.StatusOK)
	return err
}

// SetPolicy switches an image's prefetch policy
// (PUT /images/{name}/policy); zero Depth and TopK take the server's
// defaults.
func (c *Client) SetPolicy(name string, spec romserver.PolicySpec) (romserver.PolicyInfo, error) {
	var info romserver.PolicyInfo
	q := url.Values{"policy": {spec.Policy}}
	for key, v := range map[string]int{"k": spec.TopK, "depth": spec.Depth} {
		if v > 0 {
			q.Set(key, strconv.Itoa(v))
		}
	}
	body, err := c.send(http.MethodPut, "/images/"+name+"/policy?"+q.Encode(), "set policy on "+name, nil, http.StatusOK)
	if err != nil {
		return info, err
	}
	err = json.Unmarshal(body, &info)
	return info, err
}

// Metrics scrapes the server's /metrics and parses the Prometheus text
// exposition.
func (c *Client) Metrics() (obsv.Parsed, error) {
	body, err := c.send(http.MethodGet, "/metrics", "metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return obsv.ParsePrometheus(bytes.NewReader(body))
}

// Healthz probes liveness; a nil error means the server answered 200. It
// returns the per-image health rows of a node's answer, with each image's
// state and bad-block count; a router's answer carries none.
func (c *Client) Healthz() ([]romserver.HealthInfo, error) {
	var body struct {
		Health []romserver.HealthInfo `json:"health"`
	}
	err := c.getJSON("/healthz", "healthz", &body)
	return body.Health, err
}

// Readyz probes readiness; nil means the server answered 200.
func (c *Client) Readyz() error {
	_, err := c.send(http.MethodGet, "/readyz", "readyz", nil, http.StatusOK)
	return err
}
