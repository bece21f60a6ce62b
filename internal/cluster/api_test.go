package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/cluster/client"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// TestWriteErrOverloadMapping pins the node's overload status mapping:
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

// TestTextErrorBeforeBody fails a text read's first window: nothing has
// been sent, so the error must be answered with its own status and a
// JSON body, not as a 200 whose declared Content-Length never arrives.
func TestTextErrorBeforeBody(t *testing.T) {
	payload, _ := testImage(t)
	n, err := NewNode(NodeOptions{Name: "n", Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Server().AddImage("prog", payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Server().SetFaults("prog", &faultinj.Options{ErrorBlocks: []int{0}}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/images/prog/text", nil))
	var body struct{ Error string }
	if rec.Code < 400 || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("text read failing at block 0: %d %q, want an error status and JSON body", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != "" {
		t.Fatalf("error answer declares Content-Length %s of the text", cl)
	}
}

// TestDeleteFailsWhenStoreRemovalFails makes the store unable to remove
// an image's file (a non-empty directory stands in its place, which
// os.Remove refuses even for root) and asserts the delete is a 500 with
// an error body: what is left on disk can bring the image back at the
// next restart, so the client must not be told it is gone. Once the
// store is writable again, a retried delete must remove what is left
// and answer 204, and a node booted on the directory must not recover
// the image.
func TestDeleteFailsWhenStoreRemovalFails(t *testing.T) {
	payload, _ := testImage(t)
	dir := t.TempDir()
	n, err := NewNode(NodeOptions{Name: "n", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/images?name=prog", bytes.NewReader(payload)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body)
	}

	stored := n.st.path("prog")
	if err := os.Remove(stored); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stored, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/images/prog", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("delete with a failing store removal: %d, want 500", rec.Code)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("delete error body = %q (%v), want a JSON error", rec.Body, err)
	}

	if err := os.RemoveAll(stored); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/images/prog", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("retried delete: %d: %s, want 204", rec.Code, rec.Body)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("retried delete left %d entries on disk (%v)", len(left), err)
	}
	fresh, err := NewNode(NodeOptions{Name: "fresh", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if imgs := fresh.Server().Images(); len(imgs) != 0 {
		t.Fatalf("a node booted on the data dir recovered %d images, want 0", len(imgs))
	}
}

// TestRecompressPersistsWithoutTieringOptions migrates a tiered image
// through PUT /images/{name}/tiering?recompress=1 on a node that has a
// data dir but no Server.Tiering, as the cluster drill's nodes have,
// then reopens a node on the same directory: its GET …/tiering must
// show the migrated tier map, not the upload-time one.
func TestRecompressPersistsWithoutTieringOptions(t *testing.T) {
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	img, err := codecomp.CompressTiered(text, codecomp.TierSpec{
		BlockSize:   128,
		Tiers:       []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS},
		DefaultTier: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	serve := func(n *Node, method, url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d: %s", method, url, rec.Code, rec.Body)
		}
		return rec
	}
	tierMap := func(n *Node) []uint8 {
		var ti romserver.TieringInfo
		if err := json.Unmarshal(serve(n, http.MethodGet, "/images/tprog/tiering", nil).Body.Bytes(), &ti); err != nil {
			t.Fatal(err)
		}
		return ti.Assignments
	}

	n, err := NewNode(NodeOptions{Name: "n", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	serve(n, http.MethodPost, "/images?name=tprog", img.Marshal())
	// A trace that keeps returning to the first tenth of the blocks.
	blocks := img.NumBlocks()
	var trace []int
	for i := 0; i < 20000; i++ {
		trace = append(trace, i%(blocks/10))
	}
	if _, err := n.Server().TrainFrom("tprog", trace); err != nil {
		t.Fatal(err)
	}
	var pass struct {
		Pass romserver.TieringPassStats `json:"pass"`
	}
	if err := json.Unmarshal(serve(n, http.MethodPut, "/images/tprog/tiering?recompress=1", nil).Body.Bytes(), &pass); err != nil {
		t.Fatal(err)
	}
	if pass.Pass.Migrated == 0 {
		t.Fatalf("recompression migrated nothing: %+v", pass.Pass)
	}
	before := tierMap(n)
	n.Close()

	reopened, err := NewNode(NodeOptions{Name: "n", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if after := tierMap(reopened); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("reopened node serves tier map %v, want the migrated %v", after, before)
	}
}

// headerReuseWriter is a ResponseWriter that discards the body and
// hands out one header map, so an allocation count measures the handler
// rather than the writer.
type headerReuseWriter struct{ h http.Header }

func (w *headerReuseWriter) Header() http.Header         { return w.h }
func (w *headerReuseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *headerReuseWriter) WriteHeader(int)             {}

// TestCachedBlockHandlerAllocs guards the HTTP layer of the refill-hot
// path in process: a cached SAMC block served through Node.Handler()
// (mux, instrumentation, deadline header, caller-side cache hit) stays
// within 10 allocations per request, its cost when the node and
// codecompd's handlers were merged.
func TestCachedBlockHandlerAllocs(t *testing.T) {
	text := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv")).Text()
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeOptions{
		Name: "allocs", Logf: discardLogf,
		Server: romserver.Options{
			CacheBlocks: 64, CacheShards: 4, Workers: 2, PrefetchDepth: 2,
			TraceBuffer: 1024, LoadAttempts: 2, LoadTimeout: -1, ReverifyInterval: -1,
			Tracer:  obsv.NewTracer(64, 1),
			Tiering: &romserver.TieringOptions{Interval: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Server().AddImage("prog", img.Marshal()); err != nil {
		t.Fatal(err)
	}
	h := n.Handler()
	req := httptest.NewRequest(http.MethodGet, "/images/prog/blocks/3", nil)
	w := &headerReuseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // warm the block into the cache
	if got := w.h.Get("X-Cache"); got != "miss" {
		t.Fatalf("first read X-Cache = %q, want miss", got)
	}
	allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	if got := w.h.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	if allocs > 10 {
		t.Fatalf("cached block through Node.Handler: %v allocs/op, want <= 10", allocs)
	}
	t.Logf("cached block through Node.Handler: %v allocs/op", allocs)
}

// TestNodeServesNoInternalAPI pins that a miss always decodes locally:
// a node serves no route that reads its cache for another node or
// points its misses at other nodes, even for a block it holds.
func TestNodeServesNoInternalAPI(t *testing.T) {
	payload, _ := testImage(t)
	n, err := NewNode(NodeOptions{Name: "n", Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Server().AddImage("prog", payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Server().BlockContext(context.Background(), "prog", 0); err != nil {
		t.Fatal(err)
	}
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/internal/images/prog/cached/0", nil),
		httptest.NewRequest(http.MethodPut, "/internal/peers", strings.NewReader(`{"prog":["http://127.0.0.1:1"]}`)),
	} {
		w := httptest.NewRecorder()
		n.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", req.Method, req.URL.Path, w.Code)
		}
	}
}

// TestClientTypedCalls round-trips the client's fault, training and
// policy calls through a node's handlers: every fault option the client
// encodes arrives as the node parses it, a node without fault injection
// answers 403, and failures surface as *client.StatusError.
func TestClientTypedCalls(t *testing.T) {
	payload, _ := testImage(t)
	var mu sync.Mutex
	var logs []string
	n, err := NewNode(NodeOptions{Name: "typed", AllowFaults: true, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	cc := client.New(srv.URL, nil)
	info, err := cc.Upload("prog", payload)
	if err != nil {
		t.Fatal(err)
	}

	if err := cc.SetFaults("prog", faultinj.Options{
		Seed: 3, BitFlipRate: 0.5, TransientRate: 0.25,
		PanicBlocks: []int{1, 2}, ErrorBlocks: []int{4}, Latency: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := logs[len(logs)-1]
	mu.Unlock()
	if want := "bitflip=0.5 transient=0.25 panic=[1 2] error=[4] latency=2ms seed=3"; !strings.Contains(last, want) {
		t.Fatalf("node installed %q, want %q", last, want)
	}
	if err := cc.ClearFaults("prog"); err != nil {
		t.Fatal(err)
	}

	if err := cc.Train("prog", &traceprof.Trace{Image: "prog", Blocks: info.Blocks, Accesses: []int{0, 1, 2, 1, 0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	pol, err := cc.SetPolicy("prog", romserver.PolicySpec{Policy: "markov", TopK: 2, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Image != "prog" || pol.Policy != "markov" {
		t.Fatalf("SetPolicy = %+v, want markov on prog", pol)
	}

	var se *client.StatusError
	if _, err := cc.SetPolicy("nope", romserver.PolicySpec{Policy: "sequential"}); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("SetPolicy on a missing image = %v, want a 404 StatusError", err)
	}
	if _, err := cc.SetPolicy("prog", romserver.PolicySpec{Policy: "hotset"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("SetPolicy hotset = %v, want a 400 StatusError for an unknown policy", err)
	}
	off, err := NewNode(NodeOptions{Name: "nofaults", Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	offSrv := httptest.NewServer(off.Handler())
	defer offSrv.Close()
	if err := client.New(offSrv.URL, nil).SetFaults("prog", faultinj.Options{}); !errors.As(err, &se) || se.Code != http.StatusForbidden {
		t.Fatalf("SetFaults without fault injection = %v, want a 403 StatusError", err)
	}
}
