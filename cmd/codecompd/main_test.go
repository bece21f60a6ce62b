package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

func testConfig() config {
	return config{
		cacheBlocks: 64,
		cacheShards: 4,
		workers:     2,
		prefetch:    2,
		traceBuffer: 1024,
		maxImage:    16 << 20,
		retries:     2,
		traceRing:   64,
		traceSample: 1,
	}
}

// startDaemon builds a daemon from cfg, serves its mux over httptest and
// uploads one SAMC image named "prog". Returns the test server and the
// image's block count.
func startDaemon(t *testing.T, cfg config) (*daemon, *httptest.Server, int) {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.rs.Close() })
	ts := httptest.NewServer(d.mux)
	t.Cleanup(ts.Close)

	prog := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv"))
	img, err := codecomp.CompressSAMC(prog.Text(), codecomp.SAMCOptions{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/images?name=prog", "application/octet-stream",
		strings.NewReader(string(img.Marshal())))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var info romserver.ImageInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return d, ts, info.Blocks
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMetricsPrometheusRoundTrip drives traffic through the HTTP layer and
// asserts the default /metrics exposition is valid Prometheus text that
// our own parser round-trips, with non-zero per-route latency tails.
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	_, ts, blocks := startDaemon(t, testConfig())
	for i := 0; i < blocks; i++ {
		resp, _ := get(t, fmt.Sprintf("%s/images/prog/blocks/%d", ts.URL, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("block %d: %d", i, resp.StatusCode)
		}
	}

	resp, body := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obsv.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obsv.PrometheusContentType)
	}
	p, err := obsv.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v", err)
	}

	route := map[string]string{"route": "block"}
	h, ok := p.Histogram("codecompd_http_request_seconds", route)
	if !ok {
		t.Fatal(`codecompd_http_request_seconds{route="block"} missing`)
	}
	if h.Count != float64(blocks) {
		t.Errorf("block route latency count = %v, want %d", h.Count, blocks)
	}
	if h.QuantileDuration(0.99) <= 0 {
		t.Errorf("block route p99 = %v, want > 0", h.QuantileDuration(0.99))
	}
	if reqs, _ := p.Value("codecompd_http_requests_total", route); reqs != float64(blocks) {
		t.Errorf("requests_total{route=block} = %v, want %d", reqs, blocks)
	}
	// The romserver phase histograms ride the same registry.
	for _, name := range []string{
		"romserver_decode_seconds", "romserver_verify_seconds", "romserver_block_load_seconds",
	} {
		if h, ok := p.Histogram(name, nil); !ok || h.Count == 0 {
			t.Errorf("%s absent or empty in daemon scrape", name)
		}
	}
	// The scrape observes itself: exactly one request (this one) in flight.
	if g, ok := p.Value("codecompd_http_inflight", nil); !ok || g != 1 {
		t.Errorf("codecompd_http_inflight = %v during scrape, want 1", g)
	}
}

// TestMetricsJSONNegotiation asserts the legacy JSON stats shape is still
// served when the client asks for it (loadgen does).
func TestMetricsJSONNegotiation(t *testing.T) {
	_, ts, _ := startDaemon(t, testConfig())
	for _, u := range []struct {
		url string
		hdr map[string]string
	}{
		{ts.URL + "/metrics", map[string]string{"Accept": "application/json"}},
		{ts.URL + "/metrics?format=json", nil},
	} {
		resp, body := get(t, u.url, u.hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", u.url, resp.StatusCode)
		}
		var st romserver.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: not JSON stats: %v", u.url, err)
		}
		if len(st.Images) != 1 {
			t.Errorf("%s: stats lists %d images, want 1", u.url, len(st.Images))
		}
	}
}

// TestErrorCounter asserts 4xx responses land in the per-route error
// counter.
func TestErrorCounter(t *testing.T) {
	d, ts, _ := startDaemon(t, testConfig())
	resp, _ := get(t, ts.URL+"/images/absent", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing image: %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/metrics", nil)
	p, err := obsv.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if errs, _ := p.Value("codecompd_http_errors_total", map[string]string{"route": "image"}); errs != 1 {
		t.Errorf("errors_total{route=image} = %v, want 1", errs)
	}
	_ = d
}

// TestDebugTraces asserts /debug/traces serves sampled block-load spans
// with the load phases.
func TestDebugTraces(t *testing.T) {
	_, ts, blocks := startDaemon(t, testConfig()) // traceSample: 1
	for i := 0; i < blocks && i < 8; i++ {
		get(t, fmt.Sprintf("%s/images/prog/blocks/%d", ts.URL, i), nil)
	}
	resp, body := get(t, ts.URL+"/debug/traces?n=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	var out struct {
		SampledBegun int64              `json:"sampled_begun"`
		SampledDone  int64              `json:"sampled_done"`
		Traces       []obsv.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) == 0 || len(out.Traces) > 4 {
		t.Fatalf("got %d traces, want 1..4", len(out.Traces))
	}
	if out.SampledDone == 0 {
		t.Error("sampled_done = 0 after traced loads")
	}
	var sawDecode bool
	for _, tr := range out.Traces {
		if tr.Name != "block_load" {
			t.Errorf("trace name = %q", tr.Name)
		}
		for _, ph := range tr.Phases {
			if ph.Name == "decode" {
				sawDecode = true
			}
		}
	}
	if !sawDecode {
		t.Error("no trace carries a decode phase")
	}
}

// TestPprofGating asserts the profiling endpoints only exist behind
// -enable-pprof.
func TestPprofGating(t *testing.T) {
	_, off, _ := startDaemon(t, testConfig())
	if resp, _ := get(t, off.URL+"/debug/pprof/", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -enable-pprof: %d", resp.StatusCode)
	}
	cfgOn := testConfig()
	cfgOn.enablePprof = true
	_, on, _ := startDaemon(t, cfgOn)
	if resp, _ := get(t, on.URL+"/debug/pprof/", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof absent with -enable-pprof: %d", resp.StatusCode)
	}
}

// TestOperationsDocCoversRegistry walks every family a live daemon
// registers and asserts docs/OPERATIONS.md documents it by name — the
// metrics reference cannot silently rot.
func TestOperationsDocCoversRegistry(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.rs.Close()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("operator runbook missing: %v", err)
	}
	var missing []string
	for _, f := range d.reg.Families() {
		if !strings.Contains(string(doc), f.Name) {
			missing = append(missing, f.Name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("docs/OPERATIONS.md does not document %d registered metrics:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestDataDirPersistence boots a daemon with -data-dir, uploads an
// image, tears the daemon down, and boots a second one over the same
// directory: the image must come back readable with no re-upload, and
// deletion must forget it on disk too.
func TestDataDirPersistence(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	d1, ts1, _ := startDaemon(t, cfg)
	ts1.Close()
	d1.rs.Close()

	d2, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.rs.Close()
	ts2 := httptest.NewServer(d2.mux)
	defer ts2.Close()

	resp, err := http.Get(ts2.URL + "/images/prog/blocks/0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("block read after restart: %d: %s", resp.StatusCode, body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/images/prog", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", resp.Status, err)
	}
	d3, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.rs.Close()
	if imgs := d3.rs.Images(); len(imgs) != 0 {
		t.Fatalf("deleted image resurrected on restart: %v", imgs)
	}
}

// TestRangeEndpoint drives GET /images/{name}/blocks?range=i-j: the body
// must be the exact decompressed byte range, the X-Range-* headers must
// show the batched path amortizing dispatches below one-per-block, and
// malformed or out-of-range requests must fail cleanly.
func TestRangeEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.prefetch = -1 // keep the cached-block count deterministic
	_, ts, blocks := startDaemon(t, cfg)
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()

	// Warm two scattered blocks so the range has both cached blocks and
	// more than one miss-run to coalesce.
	for _, i := range []int{3, 6} {
		if resp, _ := get(t, fmt.Sprintf("%s/images/prog/blocks/%d", ts.URL, i), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm block %d: %d", i, resp.StatusCode)
		}
	}

	resp, body := get(t, ts.URL+"/images/prog/blocks?range=1-10", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range read: %d: %s", resp.StatusCode, body)
	}
	if want := text[1*32 : 11*32]; string(body) != string(want) {
		t.Fatalf("range body mismatch: %d bytes, want %d", len(body), len(want))
	}
	if got := resp.Header.Get("X-Range-Blocks"); got != "10" {
		t.Fatalf("X-Range-Blocks = %q, want 10", got)
	}
	if got := resp.Header.Get("X-Range-Cached"); got != "2" {
		t.Fatalf("X-Range-Cached = %q, want 2 (warmed blocks 3 and 6)", got)
	}
	// Miss-runs [1,2], [4,5], [7,10] → three dispatches for ten blocks.
	if got := resp.Header.Get("X-Range-Dispatches"); got != "3" {
		t.Fatalf("X-Range-Dispatches = %q, want 3", got)
	}
	if got := resp.Header.Get("X-Range-Decoded"); got != "8" {
		t.Fatalf("X-Range-Decoded = %q, want 8", got)
	}

	// Fully warm re-read: zero dispatches.
	resp, _ = get(t, ts.URL+"/images/prog/blocks?range=1-10", nil)
	if got := resp.Header.Get("X-Range-Dispatches"); got != "0" {
		t.Fatalf("warm X-Range-Dispatches = %q, want 0", got)
	}

	for _, bad := range []string{"", "5-2", "x-3", "-1-4", "3", "1-"} {
		resp, _ := get(t, ts.URL+"/images/prog/blocks?range="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("range=%q: %d, want 400", bad, resp.StatusCode)
		}
	}
	// Past-the-end maps to 404 like an out-of-range block index does.
	if resp, _ := get(t, fmt.Sprintf("%s/images/prog/blocks?range=0-%d", ts.URL, blocks), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range read: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/images/nope/blocks?range=0-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown image: %d, want 404", resp.StatusCode)
	}
}

// TestBytesEndpoint drives GET /images/{name}/bytes?off=&len= — the
// byte-granular sub-block path: exact bytes at arbitrary offsets, a
// mid-block tail decoding less than its covering blocks hold
// (X-Decoded-Bytes), and clean failures for malformed or out-of-range
// windows.
func TestBytesEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.prefetch = -1
	_, ts, _ := startDaemon(t, cfg)
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()

	// Cold sub-block read ending mid-block: blocks 0..2 decode fully,
	// block 3 only to byte 7 — strictly less codec output than the four
	// covering blocks hold.
	end := 3*32 + 7
	resp, body := get(t, fmt.Sprintf("%s/images/prog/bytes?off=0&len=%d", ts.URL, end), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bytes read: %d: %s", resp.StatusCode, body)
	}
	if string(body) != string(text[:end]) {
		t.Fatalf("bytes body mismatch: %d bytes, want %d", len(body), end)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(end) {
		t.Fatalf("Content-Length = %q, want %d", got, end)
	}
	dec, err := strconv.Atoi(resp.Header.Get("X-Decoded-Bytes"))
	if err != nil || dec <= 0 || dec >= 4*32 {
		t.Fatalf("X-Decoded-Bytes = %q, want in (0, 128)", resp.Header.Get("X-Decoded-Bytes"))
	}

	// Unaligned head, block-aligned end ([45,128)), cold and warm: the
	// warm pass serves every block from leases and decodes nothing.
	for pass := 0; pass < 2; pass++ {
		resp, body = get(t, ts.URL+"/images/prog/bytes?off=45&len=83", nil)
		if resp.StatusCode != http.StatusOK || string(body) != string(text[45:128]) {
			t.Fatalf("pass %d: bytes(45,83): %d, %d bytes", pass, resp.StatusCode, len(body))
		}
	}
	if got := resp.Header.Get("X-Decoded-Bytes"); got != "0" {
		t.Fatalf("warm X-Decoded-Bytes = %q, want 0", got)
	}
	if got := resp.Header.Get("X-Range-Dispatches"); got != "0" {
		t.Fatalf("warm X-Range-Dispatches = %q, want 0", got)
	}
	// A mid-block tail is never cached: re-reading the same window
	// partially decodes it again — the tail stays a (cheap) miss.
	resp, _ = get(t, ts.URL+"/images/prog/bytes?off=45&len=101", nil)
	if got := resp.Header.Get("X-Decoded-Bytes"); got != "18" {
		t.Fatalf("repeat mid-block tail X-Decoded-Bytes = %q, want 18 (bytes 128..146 of block 4)", got)
	}

	// Zero-length read at any valid offset is an empty 200.
	if resp, body := get(t, ts.URL+"/images/prog/bytes?off=5&len=0", nil); resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("empty read: %d, %d bytes", resp.StatusCode, len(body))
	}

	for _, bad := range []string{"off=x&len=4", "off=0", "len=4", "off=-1&len=4", "off=0&len=-2"} {
		if resp, _ := get(t, ts.URL+"/images/prog/bytes?"+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bytes?%s: %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := get(t, fmt.Sprintf("%s/images/prog/bytes?off=%d&len=1", ts.URL, len(text)), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("past-end read: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/images/nope/bytes?off=0&len=1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown image: %d, want 404", resp.StatusCode)
	}

	// The streamed /text path still serves the exact program with an
	// up-front Content-Length.
	resp, body = get(t, ts.URL+"/images/prog/text", nil)
	if resp.StatusCode != http.StatusOK || string(body) != string(text) {
		t.Fatalf("text: %d, %d bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(text)) {
		t.Fatalf("text Content-Length = %q, want %d", got, len(text))
	}
}

// TestRangeEndpointRANS uploads a rANS image over HTTP and reads it back
// through the batched range path — the full upload→detect→decode loop
// for the new codec.
func TestRangeEndpointRANS(t *testing.T) {
	_, ts, _ := startDaemon(t, testConfig())
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	img, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/images?name=rprog", "application/octet-stream",
		strings.NewReader(string(img.Marshal())))
	if err != nil {
		t.Fatal(err)
	}
	var info romserver.ImageInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.Format != codecomp.FormatRANS {
		t.Fatalf("rANS upload: %d %+v", resp.StatusCode, info)
	}
	r2, body := get(t, fmt.Sprintf("%s/images/rprog/blocks?range=0-%d", ts.URL, info.Blocks-1), nil)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("rANS range: %d: %s", r2.StatusCode, body)
	}
	if string(body) != string(text) {
		t.Fatalf("rANS range body: %d bytes, want %d", len(body), len(text))
	}
}

// TestWriteErrOverloadMapping pins the daemon's overload status mapping:
// admission rejects are 429 + Retry-After, brownout sheds are 503 +
// Retry-After, propagated-deadline expiry is 504, and an invalid
// X-Deadline-Ms header is the caller's fault (400).
func TestWriteErrOverloadMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"admission deadline", &overload.RejectError{Reason: overload.ReasonDeadline, RetryAfter: 2 * time.Second}, http.StatusTooManyRequests, true},
		{"admission queue full", &overload.RejectError{Reason: overload.ReasonQueueFull, RetryAfter: time.Second}, http.StatusTooManyRequests, true},
		{"brownout shed", &overload.RejectError{Reason: overload.ReasonBrownout, RetryAfter: 3 * time.Second}, http.StatusServiceUnavailable, true},
		{"deadline expired", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"canceled", context.Canceled, http.StatusGatewayTimeout, false},
		{"quarantined", romserver.ErrQuarantined, http.StatusServiceUnavailable, false},
		{"timeout", romserver.ErrDecompressTimeout, http.StatusGatewayTimeout, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%s: Retry-After present = %v, want %v", tc.name, got, tc.retryAfter)
		}
	}
}

// TestBlockDeadlineHeader drives the header end to end over HTTP: a
// generous propagated deadline serves normally, a malformed one is 400.
func TestBlockDeadlineHeader(t *testing.T) {
	cfg := testConfig()
	cfg.overload = true
	_, ts, _ := startDaemon(t, cfg)

	resp, _ := get(t, ts.URL+"/images/prog/blocks/0", map[string]string{"X-Deadline-Ms": "5000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-header read: %d", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/images/prog/blocks/0", map[string]string{"X-Deadline-Ms": "soon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline header: %d: %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/images/prog/blocks/0", map[string]string{"X-Deadline-Ms": "-5"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline header: %d", resp.StatusCode)
	}
}

// uploadTiered compresses text as a three-tier (raw/huffman/rans) image
// with every block starting in the densest tier and uploads it as name.
func uploadTiered(t *testing.T, ts *httptest.Server, name string, text []byte) romserver.ImageInfo {
	t.Helper()
	img, err := codecomp.CompressTiered(text, codecomp.TierSpec{
		BlockSize:   128,
		Tiers:       []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS},
		DefaultTier: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/images?name="+name, "application/octet-stream",
		strings.NewReader(string(img.Marshal())))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("tiered upload: %d: %s", resp.StatusCode, body)
	}
	var info romserver.ImageInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// skewedTraceText renders a codecomp-trace v1 body where the first
// blocks/10 blocks carry ~90% of accesses.
func skewedTraceText(blocks, accesses int) string {
	hot := blocks / 10
	if hot < 1 {
		hot = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "codecomp-trace v1 blocks=%d\n", blocks)
	for i := 0; i < accesses; i++ {
		if i%10 != 0 {
			fmt.Fprintf(&sb, "%d\n", i%hot)
		} else {
			fmt.Fprintf(&sb, "%d\n", hot+i%(blocks-hot))
		}
	}
	return sb.String()
}

func doReq(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestTieringEndpoints drives GET/PUT /images/{name}/tiering end to end:
// tier map reads, policy set via params and JSON body, the empty-PUT
// rollback, 409 on single-codec images, 400 on bad policies, and a
// forced recompression pass that migrates the trained hot set while the
// served text stays byte-exact.
func TestTieringEndpoints(t *testing.T) {
	_, ts, _ := startDaemon(t, testConfig()) // "prog" is single-codec SAMC
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	info := uploadTiered(t, ts, "tprog", text)

	resp, body := get(t, ts.URL+"/images/tprog/tiering", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET tiering: %d: %s", resp.StatusCode, body)
	}
	var ti romserver.TieringInfo
	if err := json.Unmarshal(body, &ti); err != nil {
		t.Fatal(err)
	}
	if len(ti.Tiers) != 3 || ti.Tiers[2].Blocks != info.Blocks || len(ti.Assignments) != info.Blocks {
		t.Fatalf("fresh tier map: %+v", ti.Tiers)
	}

	// Single-codec images conflict; unknown images 404.
	if resp, _ := get(t, ts.URL+"/images/prog/tiering", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET tiering on samc image: %d, want 409", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/images/prog/tiering?hot=0.5", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("PUT tiering on samc image: %d, want 409", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/images/nope/tiering", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET tiering on unknown image: %d, want 404", resp.StatusCode)
	}

	// Policy via query params, echoed by the next GET.
	resp, body = doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering?hot=0.5&warm=0.3&max_hot=0.2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT params policy: %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/images/tprog/tiering", nil)
	if err := json.Unmarshal(body, &ti); err != nil {
		t.Fatal(err)
	}
	if ti.Policy.HotFraction != 0.5 || ti.Policy.WarmFraction != 0.3 || ti.Policy.MaxHotFraction != 0.2 {
		t.Fatalf("params policy not in force: %+v", ti.Policy)
	}

	// Policy via JSON body.
	resp, body = doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering",
		`{"hot_fraction":0.7,"warm_fraction":0.1,"max_hot_fraction":0.3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT JSON policy: %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/images/tprog/tiering", nil)
	if err := json.Unmarshal(body, &ti); err != nil {
		t.Fatal(err)
	}
	if ti.Policy.HotFraction != 0.7 {
		t.Fatalf("JSON policy not in force: %+v", ti.Policy)
	}

	// Bad policies and bad params are 400s and leave the policy alone.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering?hot=2", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering?hot=abc", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad param: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering", "{"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}

	// Empty PUT resets to the server defaults — the rollback path.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reset PUT: %d", resp.StatusCode)
	}
	_, body = get(t, ts.URL+"/images/tprog/tiering", nil)
	if err := json.Unmarshal(body, &ti); err != nil {
		t.Fatal(err)
	}
	if ti.Policy != (codecomp.TierPolicy{}) {
		t.Fatalf("reset did not clear the policy: %+v", ti.Policy)
	}

	// Train on a skewed trace and force a pass: the hot set migrates and
	// the response carries the pass stats.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/images/tprog/train",
		skewedTraceText(info.Blocks, 20000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d: %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPut, ts.URL+"/images/tprog/tiering?recompress=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompress: %d: %s", resp.StatusCode, body)
	}
	var withPass struct {
		Pass romserver.TieringPassStats `json:"pass"`
	}
	if err := json.Unmarshal(body, &withPass); err != nil {
		t.Fatal(err)
	}
	if !withPass.Pass.Trained || withPass.Pass.Migrated == 0 || withPass.Pass.VerifyFailures != 0 {
		t.Fatalf("pass stats: %+v", withPass.Pass)
	}
	resp, body = get(t, ts.URL+"/images/tprog/text", nil)
	if resp.StatusCode != http.StatusOK || string(body) != string(text) {
		t.Fatalf("text after migration: %d, %d bytes (want %d)", resp.StatusCode, len(body), len(text))
	}
}

// TestTieredDataDirPersistence uploads a mixed-codec tiered image with
// -data-dir set, migrates its hot set, and restarts the daemon over the
// same directory: the recovered image must serve byte-exact text AND
// carry the migrated tier map, not the upload-time one.
func TestTieredDataDirPersistence(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	d1, ts1, _ := startDaemon(t, cfg)
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	info := uploadTiered(t, ts1, "tprog", text)

	resp, body := doReq(t, http.MethodPost, ts1.URL+"/images/tprog/train",
		skewedTraceText(info.Blocks, 20000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d: %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPut, ts1.URL+"/images/tprog/tiering?recompress=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompress: %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, ts1.URL+"/images/tprog/tiering", nil)
	var before romserver.TieringInfo
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for _, a := range before.Assignments {
		if a != 2 {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatal("nothing migrated before restart")
	}
	ts1.Close()
	d1.rs.Close()

	d2, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.rs.Close()
	ts2 := httptest.NewServer(d2.mux)
	defer ts2.Close()

	_, body = get(t, ts2.URL+"/images/tprog/tiering", nil)
	var after romserver.TieringInfo
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Assignments) != fmt.Sprint(before.Assignments) {
		t.Fatal("tier map lost across restart")
	}
	resp, body = get(t, ts2.URL+"/images/tprog/text", nil)
	if resp.StatusCode != http.StatusOK || string(body) != string(text) {
		t.Fatalf("recovered text: %d, %d bytes (want %d)", resp.StatusCode, len(body), len(text))
	}
}

// TestUploadDeleteStormKeepsStoreInStep races same-name uploads of two
// different images against a delete on a daemon with a data dir, round
// after round. Every upload registers then saves and every delete
// removes from both, so after each round the registry and the store
// must hold the same names, and each registered image must serve
// exactly the bytes stored for it.
func TestUploadDeleteStormKeepsStoreInStep(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	d, _, _ := startDaemon(t, cfg)
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	var payloads [2]string
	for k, n := range []int{len(text), len(text) / 2} {
		img, err := codecomp.CompressSAMC(text[:n], codecomp.SAMCOptions{Connected: true})
		if err != nil {
			t.Fatal(err)
		}
		payloads[k] = string(img.Marshal())
	}
	serve := func(method, url, body string) {
		rec := httptest.NewRecorder()
		d.mux.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Errorf("%s %s: %d: %s", method, url, rec.Code, rec.Body)
		}
	}
	for round := 0; round < 100; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for op := 0; op < 3; op++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if op == 2 {
					serve(http.MethodDelete, "/images/storm", "")
				} else {
					serve(http.MethodPost, "/images?name=storm", payloads[(round+op)%2])
				}
			}()
		}
		close(start)
		wg.Wait()
		checkStoreMatchesRegistry(t, d)
	}
}

// checkStoreMatchesRegistry fails unless the daemon's store and
// registry hold the same image names with the same decompressed bytes.
func checkStoreMatchesRegistry(t *testing.T, d *daemon) {
	t.Helper()
	stored, errs := d.store.Load()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	registered := map[string]bool{}
	for _, info := range d.rs.Images() {
		registered[info.Name] = true
	}
	if len(stored) != len(registered) {
		t.Fatalf("store holds %d images, registry %d (%v)", len(stored), len(registered), registered)
	}
	for _, im := range stored {
		if !registered[im.Name] {
			t.Fatalf("%q is on disk but not registered", im.Name)
		}
		codec, err := codecomp.UnmarshalAny(im.Payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := d.rs.WriteText(im.Name, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%q serves %d bytes, store holds an image of %d", im.Name, got.Len(), len(want))
		}
	}
}
