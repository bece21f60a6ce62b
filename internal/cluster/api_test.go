package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
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

// TestDeleteFailsWhenStoreRemovalFails makes the store unable to remove
// an image's manifest (a non-empty directory stands in its place, which
// os.Remove refuses even for root) and asserts the delete is a 500 with
// an error body: what is left on disk can bring the image back at the
// next restart, so the client must not be told it is gone.
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

	manifest := filepath.Join(dir, n.st.base("prog")+".json")
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifest, "pinned"), 0o755); err != nil {
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
