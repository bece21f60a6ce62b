package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// testBlockSize is the block size every test image is compressed with,
// so byte-exactness checks can slice the original text.
const testBlockSize = 32

// testImage compresses a synthetic MIPS text and returns the marshaled
// SAMC payload plus the original text for byte-exactness checks.
func testImage(t testing.TB) (payload, text []byte) {
	t.Helper()
	prog := codecomp.GenerateMIPS(codecomp.MustProfile("tomcatv"))
	text = prog.Text()
	img, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{BlockSize: testBlockSize, Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	return img.Marshal(), text
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// verifyImage reads every block of name through cli and asserts the
// reassembled bytes equal text.
func verifyImage(t *testing.T, cli *client.Client, name string, text []byte, blocks, blockSize int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		data, _, err := cli.Block(name, i)
		if err != nil {
			t.Fatalf("block %d of %q: %v", i, name, err)
		}
		lo := i * blockSize
		hi := lo + blockSize
		if hi > len(text) {
			hi = len(text)
		}
		if !bytes.Equal(data, text[lo:hi]) {
			t.Fatalf("block %d of %q: got %d bytes, want text[%d:%d] — corrupt proxy read", i, name, len(data), lo, hi)
		}
	}
}

// TestNodePersistenceAcrossRestart kills a node (Close + new process
// state) and asserts the disk store brings its images back byte-exact,
// with zero help from any router.
func TestNodePersistenceAcrossRestart(t *testing.T) {
	payload, text := testImage(t)
	dir := t.TempDir()

	n1, err := NewNode(NodeOptions{Name: "n1", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n1.Handler())
	cli := client.New(srv.URL, nil)
	info, err := cli.Upload("prog", payload)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := NewNode(NodeOptions{Name: "n1", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Registry().Counter("cluster_store_recovered_images_total", "").Value(); got != 1 {
		t.Fatalf("recovered counter = %d, want 1", got)
	}
	srv2 := httptest.NewServer(n2.Handler())
	defer srv2.Close()
	cli2 := client.New(srv2.URL, nil)
	infos, err := cli2.Images()
	if err != nil || len(infos) != 1 || infos[0].Name != "prog" {
		t.Fatalf("after restart Images = %v, %v", infos, err)
	}
	verifyImage(t, cli2, "prog", text, info.Blocks, testBlockSize)

	// Deleting must also forget on disk.
	if err := cli2.Delete("prog"); err != nil {
		t.Fatal(err)
	}
	if imgs, _ := n2.st.Load(); len(imgs) != 0 {
		t.Fatalf("store still holds %d image(s) after delete", len(imgs))
	}
}

// TestRouterFailoverEjectionRestore runs the crash story end to end
// against a real harness: kill a replica mid-traffic (reads keep
// succeeding byte-exact), the health window ejects it, restart restores
// it, and — because the store recovered its disk — reconcile re-uploads
// nothing.
func TestRouterFailoverEjectionRestore(t *testing.T) {
	payload, text := testImage(t)
	h, err := NewHarness(HarnessOptions{
		Nodes:         3,
		DataRoot:      t.TempDir(),
		Replication:   2,
		probeInterval: -1, // tests drive ProbeOnce
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rt := h.Router()

	info, err := rt.Register("prog", payload)
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Ring().Lookup("prog")
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want 2 replicas", owners)
	}
	epochBefore := rt.Ring().Epoch()
	rcli := client.New(h.RouterURL(), nil)
	verifyImage(t, rcli, "prog", text, info.Blocks, testBlockSize)

	// Crash the primary. Every read must still succeed byte-exact — the
	// router fails over to the surviving replica synchronously.
	victim := owners[0]
	if err := h.Kill(victim); err != nil {
		t.Fatal(err)
	}
	verifyImage(t, rcli, "prog", text, info.Blocks, testBlockSize)
	if got := rt.Ring().Epoch(); got != epochBefore {
		t.Fatalf("epoch moved %d -> %d on a crash; crashes are not membership changes", epochBefore, got)
	}

	// Probes eject the dead member.
	waitFor(t, 5*time.Second, "ejection of "+victim, func() bool {
		rt.ProbeOnce()
		for _, ns := range rt.Nodes() {
			if ns.Name == victim {
				return ns.Ejected
			}
		}
		return false
	})

	// Restart; probes restore it; reconcile finds the disk store already
	// recovered everything.
	if err := h.Restart(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "restore of "+victim, func() bool {
		rt.ProbeOnce()
		for _, ns := range rt.Nodes() {
			if ns.Name == victim {
				return !ns.Ejected
			}
		}
		return false
	})
	hn, err := h.lookup(victim)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "restarted node to hold prog", func() bool {
		n := hn.Node()
		if n == nil {
			return false
		}
		return len(n.Server().Images()) == 1
	})
	if got := rt.ReconcileUploads(); got != 0 {
		t.Fatalf("reconcile re-uploaded %d image(s); disk recovery should have made that 0", got)
	}
	verifyImage(t, rcli, "prog", text, info.Blocks, testBlockSize)
}

// TestRouterJoinLeaveRebalance exercises admin membership changes:
// every join/leave bumps the epoch, copies land on exactly the ring's
// owners, and reads stay byte-exact throughout.
func TestRouterJoinLeaveRebalance(t *testing.T) {
	payload, text := testImage(t)
	h, err := NewHarness(HarnessOptions{
		Nodes:         2,
		DataRoot:      t.TempDir(),
		Replication:   2,
		probeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rt := h.Router()

	info, err := rt.Register("prog", payload)
	if err != nil {
		t.Fatal(err)
	}
	rcli := client.New(h.RouterURL(), nil)
	e0 := rt.Ring().Epoch()

	// holders returns which running harness nodes hold prog locally.
	holders := func() map[string]bool {
		out := make(map[string]bool)
		for _, hn := range h.Nodes() {
			if n := hn.Node(); n != nil && len(n.Server().Images()) > 0 {
				out[hn.Name()] = true
			}
		}
		return out
	}
	if got := holders(); len(got) != 2 {
		t.Fatalf("before join, holders = %v, want both nodes", got)
	}

	if _, err := h.Join("node-2"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Ring().Epoch(); got != e0+1 {
		t.Fatalf("epoch after join = %d, want %d", got, e0+1)
	}
	if got := len(rt.Ring().Nodes()); got != 3 {
		t.Fatalf("ring has %d nodes after join, want 3", got)
	}
	verifyImage(t, rcli, "prog", text, info.Blocks, testBlockSize)

	// Placement must now match the ring exactly: owners hold the image,
	// the third node does not (rebalance cleanup dropped any stale copy).
	owners := rt.Ring().Lookup("prog")
	want := map[string]bool{owners[0]: true, owners[1]: true}
	waitFor(t, 5*time.Second, "holdings to match ring owners", func() bool {
		got := holders()
		if len(got) != len(want) {
			return false
		}
		for n := range want {
			if !got[n] {
				return false
			}
		}
		return true
	})

	// Leave one owner: epoch bumps again, the image re-replicates onto
	// the survivors, reads never break.
	if err := rt.RemoveNode(owners[0]); err != nil {
		t.Fatal(err)
	}
	if got := rt.Ring().Epoch(); got != e0+2 {
		t.Fatalf("epoch after leave = %d, want %d", got, e0+2)
	}
	verifyImage(t, rcli, "prog", text, info.Blocks, testBlockSize)
	newOwners := rt.Ring().Lookup("prog")
	if len(newOwners) != 2 {
		t.Fatalf("owners after leave = %v, want 2", newOwners)
	}
	for _, o := range newOwners {
		if o == owners[0] {
			t.Fatalf("departed node %s still owns prog", o)
		}
	}
}

// TestRouterHTTPAPI drives the router purely over HTTP with the shared
// client — the same surface loadgen and production callers use.
func TestRouterHTTPAPI(t *testing.T) {
	payload, text := testImage(t)
	h, err := NewHarness(HarnessOptions{
		Nodes:         3,
		DataRoot:      t.TempDir(),
		probeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cli := client.New(h.RouterURL(), nil)

	info, err := cli.Upload("prog", payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "prog" || info.Blocks == 0 {
		t.Fatalf("upload info = %+v", info)
	}
	infos, err := cli.Images()
	if err != nil || len(infos) != 1 {
		t.Fatalf("Images = %v, %v", infos, err)
	}
	if _, err := cli.Image("prog"); err != nil {
		t.Fatal(err)
	}
	// The per-route series count every block request exactly once, and
	// a 404 is the caller's error, not the router's.
	reg := h.Router().Registry()
	blockReqs := reg.CounterVec("router_requests_total", "", "route").With("block")
	imageErrs := reg.CounterVec("router_errors_total", "", "route").With("image")
	before := blockReqs.Value()
	verifyImage(t, cli, "prog", text, info.Blocks, testBlockSize)
	if got := blockReqs.Value() - before; got != int64(info.Blocks) {
		t.Fatalf(`router_requests_total{route="block"} rose by %d over %d block reads`, got, info.Blocks)
	}
	if _, err := cli.Image("absent"); err == nil {
		t.Fatal("Image(absent) succeeded")
	}
	if got := imageErrs.Value(); got != 0 {
		t.Fatalf(`router_errors_total{route="image"} = %d after a 404, want 0`, got)
	}

	// Sub-block byte reads proxy through the same hedged placement path;
	// bytes must be exact and a mid-block tail must decode less than its
	// covering blocks hold.
	for _, w := range [][2]int{{0, 1}, {0, len(text)}, {45, 101}, {len(text) - 7, 7}, {3, 0}} {
		data, st, _, err := cli.ReadBytes("prog", w[0], w[1])
		if err != nil {
			t.Fatalf("ReadBytes(%v): %v", w, err)
		}
		if !bytes.Equal(data, text[w[0]:w[0]+w[1]]) {
			t.Fatalf("ReadBytes(%v): wrong bytes (%d returned)", w, len(data))
		}
		if w[1] > 0 && st.Blocks == 0 {
			t.Fatalf("ReadBytes(%v): stats not propagated: %+v", w, st)
		}
	}
	if _, _, decoded, err := cli.ReadBytes("prog", 0, 2*testBlockSize+5); err != nil || decoded >= 3*testBlockSize {
		// Blocks 0..1 are warm from the sweep above; the tail partial
		// decode must report fewer decoded bytes than three full blocks.
		t.Fatalf("mid-block tail ReadBytes: decoded %d, err %v", decoded, err)
	}
	if _, _, _, err := cli.ReadBytes("prog", len(text), 1); err == nil {
		t.Fatal("past-end ReadBytes succeeded")
	}

	resp, err := http.Get(h.RouterURL() + "/cluster/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var membership struct{ Nodes []NodeState }
	err = json.NewDecoder(resp.Body).Decode(&membership)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range membership.Nodes {
		if n.Ejected {
			t.Errorf("member %s ejected", n.Name)
		}
	}
	if len(membership.Nodes) != 3 {
		t.Fatalf("/cluster/nodes lists %d members, want 3", len(membership.Nodes))
	}
	if _, err := cli.Healthz(); err != nil {
		t.Fatal(err)
	}
	// Each replica's /healthz body carries the image's health row.
	holders := 0
	for _, hn := range h.Nodes() {
		health, err := client.New(hn.URL(), nil).Healthz()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range health {
			if row.Image == "prog" && row.State == "healthy" && row.BadBlocks == 0 {
				holders++
			}
		}
	}
	if want := len(h.Router().Ring().Lookup("prog")); holders != want {
		t.Fatalf("%d nodes report a healthy prog in /healthz, want its %d replicas", holders, want)
	}
	if err := cli.Readyz(); err != nil {
		t.Fatal(err)
	}

	if err := cli.Delete("prog"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Image("prog"); err == nil {
		t.Fatal("Image succeeded after delete")
	}
	var se *client.StatusError
	if _, _, err := cli.Block("prog", 0); err == nil || !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("deleted block read error = %v, want a 404 StatusError", err)
	}
}

// TestOperationsDocCoversClusterRegistries walks every metric family a
// live node and a live router register and asserts docs/OPERATIONS.md
// documents it by name, so the metrics reference cannot silently rot.
// The node is configured as codecompd's defaults configure it (tracer,
// overload, tiering) plus a data dir, so every optional family
// registers.
func TestOperationsDocCoversClusterRegistries(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("operator runbook missing: %v", err)
	}
	n, err := NewNode(NodeOptions{
		Name: "doc", DataDir: t.TempDir(), Logf: discardLogf,
		Server: romserver.Options{
			Tracer:   obsv.NewTracer(16, 1),
			Overload: &overload.Config{},
			Tiering:  &romserver.TieringOptions{Interval: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rt := NewRouter(RouterOptions{ProbeInterval: -1, Logf: discardLogf})
	defer rt.Close()

	var missing []string
	seen := make(map[string]bool)
	for _, f := range n.Registry().Families() {
		if !seen[f.Name] && !strings.Contains(string(doc), f.Name) {
			missing = append(missing, "node: "+f.Name)
		}
		seen[f.Name] = true
	}
	for _, f := range rt.Registry().Families() {
		if !seen[f.Name] && !strings.Contains(string(doc), f.Name) {
			missing = append(missing, "router: "+f.Name)
		}
		seen[f.Name] = true
	}
	if len(missing) > 0 {
		t.Fatalf("docs/OPERATIONS.md does not document %d cluster metrics:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestRouterOverloadBackoff pins the health-accounting contract for
// overload signals: a member answering 429s or brownout 503s (503 with
// Retry-After) is alive — no amount of them may eject it — but it
// enters an overload backoff window so hedges stop piling onto it. A
// 503 without Retry-After keeps its old meaning (quarantined/dead-ish)
// and still ejects.
func TestRouterOverloadBackoff(t *testing.T) {
	rt := NewRouter(RouterOptions{ProbeInterval: -1, Logf: discardLogf})
	defer rt.Close()
	if err := rt.AddNode("n1", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	rt.memMu.RLock()
	m := rt.members["n1"]
	rt.memMu.RUnlock()

	for i := 0; i < 64; i++ {
		rt.recordOutcome(m, &client.StatusError{Code: 429, RetryAfter: 2 * time.Second})
		rt.recordOutcome(m, &client.StatusError{Code: 503, RetryAfter: time.Second})
	}
	if m.ejected.Load() {
		t.Fatal("overload answers (429/503+Retry-After) ejected the member; browned-out nodes are alive")
	}
	if !m.overloaded() {
		t.Fatal("overload answers did not start the member's hedge backoff window")
	}

	// Quarantine-style 503s (no Retry-After) are real failures.
	for i := 0; i < 64; i++ {
		rt.recordOutcome(m, &client.StatusError{Code: 503})
	}
	if !m.ejected.Load() {
		t.Fatal("sustained plain 503s did not eject the member")
	}
}

// TestHedgeDelayClamp pins the hedge delay: HedgeDefault until
// hedgeMinSamples upstream latencies exist, then the upstream p99
// clamped to [hedgeMin, hedgeMax].
func TestHedgeDelayClamp(t *testing.T) {
	delay := func(rt *Router) time.Duration {
		rt.hedgeAt = time.Time{} // expire the cached delay
		return rt.hedgeDelay()
	}
	observe := func(rt *Router, n int, d time.Duration) {
		for i := 0; i < n; i++ {
			rt.upstreamSeconds.Observe(d)
		}
	}

	fast := NewRouter(RouterOptions{ProbeInterval: -1, HedgeDefault: 7 * time.Millisecond, Logf: discardLogf})
	defer fast.Close()
	observe(fast, hedgeMinSamples-1, 10*time.Microsecond)
	if got := delay(fast); got != 7*time.Millisecond {
		t.Fatalf("delay below %d samples = %v, want HedgeDefault 7ms", hedgeMinSamples, got)
	}
	observe(fast, 1, 10*time.Microsecond)
	if got := delay(fast); got != hedgeMin {
		t.Fatalf("delay over a 10µs p99 = %v, want the %v floor", got, hedgeMin)
	}

	slow := NewRouter(RouterOptions{ProbeInterval: -1, Logf: discardLogf})
	defer slow.Close()
	observe(slow, hedgeMinSamples, 2*time.Second)
	if got := delay(slow); got != hedgeMax {
		t.Fatalf("delay over a 2s p99 = %v, want the %v ceiling", got, hedgeMax)
	}
}
