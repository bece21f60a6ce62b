package drill

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"codecomp/internal/cluster"
	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// testConfig shrinks the default run to a fast profile and a short
// trace, so every drill runs in process in a few seconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Profile = "tomcatv"
	cfg.Trace = 20000
	cfg.Loops = 1
	cfg.Concurrency = 4
	cfg.SubblockReads = 400
	return cfg
}

// testWorkload builds the test configuration's workload once per test.
func testWorkload(t *testing.T, cfg Config) *Workload {
	t.Helper()
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// passes returns a check that fails the test unless a drill ran and
// found no violation.
func passes(t *testing.T) func(violations int, err error) {
	return func(violations int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if violations != 0 {
			t.Fatalf("%d invariant violations, want 0", violations)
		}
	}
}

// TestProgramWindows pins the one expected-bytes helper: a block's
// window is its slice of the text, and the last block and any span
// reaching past the end are clamped to the text.
func TestProgramWindows(t *testing.T) {
	p := program{text: make([]byte, 100), blockSize: 32}
	for _, tc := range []struct {
		first, last int
		want        window
	}{
		{0, 0, window{0, 32}},
		{1, 2, window{32, 64}},
		{3, 3, window{96, 4}},
		{2, 7, window{64, 36}},
	} {
		if got := p.span(tc.first, tc.last); got != tc.want {
			t.Errorf("span(%d,%d) = %+v, want %+v", tc.first, tc.last, got, tc.want)
		}
		w := p.span(tc.first, tc.last)
		if p.first(w) != tc.first || p.last(w) != min(tc.last, p.blocks()-1) {
			t.Errorf("span(%d,%d) covers blocks [%d,%d]", tc.first, tc.last, p.first(w), p.last(w))
		}
	}
	if p.blocks() != 4 {
		t.Errorf("blocks() = %d, want 4", p.blocks())
	}
}

// TestEngineCountsLyingReads runs the closed-loop engine over a read
// function that returns one wrong byte for one block and fails another:
// the engine must count exactly one corrupt and one failed read.
func TestEngineCountsLyingReads(t *testing.T) {
	p := program{text: bytes.Repeat([]byte("0123456789abcdef"), 64), blockSize: 32}
	var finished atomic.Int64
	res := replay{prog: p, workers: 3, label: "test",
		next: stream(p.blocks(), p.block),
		read: func(w window) ([]byte, error) {
			body := append([]byte(nil), p.text[w.off:w.off+w.n]...)
			switch p.first(w) {
			case 5:
				body[7] ^= 0x10
			case 9:
				return nil, errors.New("refused")
			}
			return body, nil
		},
		onDone: func(n int64) { finished.Store(max(finished.Load(), n)) },
	}.run()
	if res.corrupt != 1 || res.failed != 1 || res.ok != int64(p.blocks()-2) {
		t.Fatalf("ok/failed/corrupt = %d/%d/%d, want %d/1/1", res.ok, res.failed, res.corrupt, p.blocks()-2)
	}
	if res.bytes != int64(len(p.text)-2*p.blockSize) {
		t.Fatalf("ok bytes = %d, want %d", res.bytes, len(p.text)-2*p.blockSize)
	}
	if finished.Load() != int64(p.blocks()) {
		t.Fatalf("onDone saw %d requests, want %d", finished.Load(), p.blocks())
	}
}

// lyingHandler serves h but flips one byte of every block and range
// body that starts at block target.
func lyingHandler(h http.Handler, target int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		lie := strings.HasSuffix(r.URL.Path, fmt.Sprintf("/blocks/%d", target)) ||
			strings.HasPrefix(r.URL.Query().Get("range"), fmt.Sprintf("%d-", target))
		if lie && rec.Code == http.StatusOK && len(body) > 0 {
			body[len(body)-1] ^= 1
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body) //nolint:errcheck
	})
}

// TestRangeDrillFailsOnOneWrongByte serves the range drill through a
// node that flips one byte of the spans starting at one block: the
// drill must report the corrupt read and fail.
func TestRangeDrillFailsOnOneWrongByte(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSpan = 8
	w := testWorkload(t, cfg)
	node, err := bootNode("liar", romserver.Options{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	liar := httptest.NewServer(lyingHandler(node.Handler(), w.Reqs[0]))
	defer liar.Close()
	if violations, err := Range(cfg, client.New(liar.URL, nil), w); err != nil || violations == 0 {
		t.Fatalf("range drill through a lying node: %d violations (%v), want > 0", violations, err)
	}
}

// TestRangeDrill replays spans through the batched range path of an
// honest node.
func TestRangeDrill(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSpan = 8
	w := testWorkload(t, cfg)
	node, err := bootNode("range", romserver.Options{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	passes(t)(Range(cfg, client.New(node.srv.URL, nil), w))
}

// TestABDrill runs the policy A/B over HTTP against a local node: both
// arms upload the image cold, the markov arm trains it from the trace,
// and each arm sets its policy before the verified replay.
func TestABDrill(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = "markov"
	w := testWorkload(t, cfg)
	node, err := bootNode("ab", romserver.Options{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	passes(t)(AB(cfg, client.New(node.srv.URL, nil), w))
}

// TestOfflineDrill scores the workload's trace under both policies
// through the memsys model, with no server.
func TestOfflineDrill(t *testing.T) {
	cfg := testConfig()
	if err := Offline(cfg, testWorkload(t, cfg)); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDrill runs the fault drill against a local node that allows
// fault injection and re-verifies unhealthy images quickly.
func TestChaosDrill(t *testing.T) {
	cfg := testConfig()
	cfg.Loops = 4
	w := testWorkload(t, cfg)
	node, err := bootNode("chaos", romserver.Options{
		CacheBlocks: 256, LoadAttempts: 3, ReverifyInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	passes(t)(Chaos(cfg, client.New(node.srv.URL, nil), w))
}

// TestChaosNeedsFaultInjection points the chaos drill at a node that
// refuses fault injection: it must stop with the hint, not run.
func TestChaosNeedsFaultInjection(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, cfg)
	node, err := cluster.NewNode(cluster.NodeOptions{Name: "nofaults", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	_, err = Chaos(cfg, client.New(srv.URL, nil), w)
	if err == nil || !strings.Contains(err.Error(), "-enable-fault-injection") {
		t.Fatalf("chaos against a node without fault injection: %v, want the -enable-fault-injection hint", err)
	}
}

// TestSubblockDrill runs the byte-window drill, clean and faulted.
func TestSubblockDrill(t *testing.T) {
	cfg := testConfig()
	passes(t)(Subblock(cfg, testWorkload(t, cfg)))
}

// TestClusterDrill runs the cluster drill: kill, restart and join
// under a verified replay.
func TestClusterDrill(t *testing.T) {
	cfg := testConfig()
	cfg.Loops = 2
	passes(t)(Cluster(cfg, testWorkload(t, cfg)))
}

// TestTieringDrill runs the tiering drill on the fast profile.
func TestTieringDrill(t *testing.T) {
	passes(t)(Tiering(testConfig()))
}

// TestOpenLoopClassifier drives the open-loop engine at a stub that
// answers by block index: 200 with the right bytes, 429, 503 with
// Retry-After, 504, 200 with one wrong byte and 503 without
// Retry-After. Every outcome must land in its own class, and the
// corrupt 200 must not count as served.
func TestOpenLoopClassifier(t *testing.T) {
	p := program{text: bytes.Repeat([]byte("abcdefgh"), 48), blockSize: 64}
	const kinds = 6
	var answered [kinds]atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /images/{name}/blocks/{i}", func(w http.ResponseWriter, r *http.Request) {
		b, err := strconv.Atoi(r.PathValue("i"))
		if err != nil {
			http.Error(w, "bad index", http.StatusBadRequest)
			return
		}
		answered[b].Add(1)
		body := append([]byte(nil), p.text[p.block(b).off:p.block(b).off+p.block(b).n]...)
		switch b {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "admission", http.StatusTooManyRequests)
		case 2:
			w.Header().Set("Retry-After", "2")
			http.Error(w, "brownout", http.StatusServiceUnavailable)
		case 3:
			http.Error(w, "deadline", http.StatusGatewayTimeout)
		case 4:
			body[3] ^= 0x40
			w.Write(body) //nolint:errcheck
		case 5:
			http.Error(w, "quarantined", http.StatusServiceUnavailable)
		default:
			w.Write(body) //nolint:errcheck
		}
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	n := 0
	res := runOpenLoop(openLoopClient(stub.URL, 5*time.Second), "stub", p, openLoopConfig{
		qps: 600, deadline: 2 * time.Second, duration: 300 * time.Millisecond,
		next: func() int { n++; return n % kinds },
	})
	got := map[string]int64{"ok": res.ok, "rejected": res.rejected, "shed": res.shed,
		"expired": res.expired, "corrupt": res.corrupt, "failed": res.failed}
	want := map[string]int64{"ok": answered[0].Load(), "rejected": answered[1].Load(), "shed": answered[2].Load(),
		"expired": answered[3].Load(), "corrupt": answered[4].Load(), "failed": answered[5].Load()}
	for class, w := range want {
		if w == 0 {
			t.Errorf("stub never answered as %s", class)
		}
		if got[class] != w {
			t.Errorf("%s = %d, want %d", class, got[class], w)
		}
	}
	if res.timedOut != 0 || res.overflow != 0 {
		t.Errorf("timed out %d, overflow %d, want 0", res.timedOut, res.overflow)
	}
	if res.okLatency.Count != res.ok {
		t.Errorf("latency histogram holds %d completions, want the %d exact ones", res.okLatency.Count, res.ok)
	}
}

// TestDrillFamiliesRegistered checks that a fresh node, with overload on
// and a data dir set, exposes every family the drills read by name, so
// a renamed family fails here instead of reading as zero in a drill, and
// that counters refuses a family a scrape lacks.
func TestDrillFamiliesRegistered(t *testing.T) {
	n, err := cluster.NewNode(cluster.NodeOptions{
		Name: "families", DataDir: t.TempDir(),
		Server: romserver.Options{Overload: &overload.Config{}},
		Logf:   func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var buf bytes.Buffer
	if err := n.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := obsv.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range drillFamilies {
		if p[name] == nil {
			t.Errorf("a fresh node does not expose %s", name)
		}
	}
	if _, err := counters(p, famCacheHits, "no_such_family_total"); err == nil {
		t.Error("counters read a missing family without an error")
	}
}
