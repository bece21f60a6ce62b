// In-process cluster harness: N real nodes on real TCP listeners
// behind one real router, with kill/restart of individual members.
// This is the substrate for the loadgen -cluster chaos drill and the
// package's own tests — everything goes over actual HTTP so the drill
// exercises the same client and proxy paths production would, while
// staying a single process a CI job can run.
package cluster

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"codecomp/internal/romserver"
)

// HarnessOptions configures an in-process cluster.
type HarnessOptions struct {
	// Nodes is the initial member count (default 3).
	Nodes int
	// DataRoot is the directory that holds each node's persistent store
	// (DataRoot/<node-name>); required, normally t.TempDir() or a
	// loadgen temp dir.
	DataRoot string
	// Replication is how many nodes hold each image (default
	// DefaultReplication).
	Replication int
	// Server tunes every node's romserver (zero values take defaults).
	Server romserver.Options

	// probeInterval is the router's health-probe period (0 takes the
	// router's default); the package's tests set -1 and drive ProbeOnce
	// by hand.
	probeInterval time.Duration
}

// discardLogf drops the harness's node and router logs.
func discardLogf(string, ...any) {}

// HarnessNode is one member: its stable name/address, its data dir, and
// the live server state (nil while killed).
type HarnessNode struct {
	name    string
	addr    string // host:port, stable across kill/restart
	dataDir string

	mu   sync.Mutex
	node *Node
	srv  *http.Server
}

// Name returns the node's ring name.
func (hn *HarnessNode) Name() string { return hn.name }

// URL returns the node's base URL.
func (hn *HarnessNode) URL() string { return "http://" + hn.addr }

// Node returns the live node, nil while killed.
func (hn *HarnessNode) Node() *Node {
	hn.mu.Lock()
	defer hn.mu.Unlock()
	return hn.node
}

// Harness is a running in-process cluster.
type Harness struct {
	opts       HarnessOptions
	rt         *Router
	routerSrv  *http.Server
	routerAddr string

	mu    sync.Mutex
	nodes []*HarnessNode
	wg    sync.WaitGroup
}

// NewHarness boots the nodes, the router, and joins every node. On
// error, everything already started is torn down.
func NewHarness(opts HarnessOptions) (*Harness, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.DataRoot == "" {
		return nil, fmt.Errorf("cluster: harness needs a DataRoot")
	}
	h := &Harness{opts: opts, rt: NewRouter(RouterOptions{
		Replication:   opts.Replication,
		ProbeInterval: opts.probeInterval,
		Logf:          discardLogf,
	})}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	h.routerAddr = ln.Addr().String()
	h.routerSrv = &http.Server{Handler: h.rt.Handler()}
	h.serve(h.routerSrv, ln)

	for i := 0; i < opts.Nodes; i++ {
		if _, err := h.Join(fmt.Sprintf("node-%d", i)); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// serve runs srv on ln, tracked for Close.
func (h *Harness) serve(srv *http.Server, ln net.Listener) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		srv.Serve(ln) //nolint:errcheck — ErrServerClosed on shutdown
	}()
}

// Router returns the harness router.
func (h *Harness) Router() *Router { return h.rt }

// RouterURL returns the router's base URL — the address the drill's
// traffic goes to.
func (h *Harness) RouterURL() string { return "http://" + h.routerAddr }

// Nodes returns the members in join order (killed ones included).
func (h *Harness) Nodes() []*HarnessNode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*HarnessNode(nil), h.nodes...)
}

// lookup finds a member by name.
func (h *Harness) lookup(name string) (*HarnessNode, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hn := range h.nodes {
		if hn.name == name {
			return hn, nil
		}
	}
	return nil, fmt.Errorf("cluster: harness has no node %q", name)
}

// start builds hn's Node from its data dir and serves it on addr
// (hn.mu held by caller).
func (h *Harness) start(hn *HarnessNode, addr string) error {
	node, err := NewNode(NodeOptions{
		Name:    hn.name,
		DataDir: hn.dataDir,
		Server:  h.opts.Server,
		Logf:    discardLogf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		node.Close()
		return err
	}
	hn.addr = ln.Addr().String()
	hn.node = node
	hn.srv = &http.Server{Handler: node.Handler()}
	h.serve(hn.srv, ln)
	return nil
}

// Join starts a fresh node and adds it to the ring, rebalancing
// placement onto it. Safe to call mid-replay — that is the point.
func (h *Harness) Join(name string) (*HarnessNode, error) {
	hn := &HarnessNode{name: name, dataDir: filepath.Join(h.opts.DataRoot, name)}
	hn.mu.Lock()
	err := h.start(hn, "127.0.0.1:0")
	hn.mu.Unlock()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.nodes = append(h.nodes, hn)
	h.mu.Unlock()
	if err := h.rt.AddNode(name, hn.URL()); err != nil {
		return hn, err
	}
	return hn, nil
}

// Kill abruptly stops a node's listener and server state. Its data dir
// and its ring membership survive — to the router this is a crash, not
// a leave: requests fail over to replicas and health ejects the member
// until Restart brings it back.
func (h *Harness) Kill(name string) error {
	hn, err := h.lookup(name)
	if err != nil {
		return err
	}
	hn.mu.Lock()
	defer hn.mu.Unlock()
	if hn.node == nil {
		return fmt.Errorf("cluster: node %q already killed", name)
	}
	hn.srv.Close() //nolint:errcheck — abrupt by design
	err = hn.node.Close()
	hn.node, hn.srv = nil, nil
	return err
}

// Restart brings a killed node back on its original address with its
// original data dir; the store recovers its images and the router's
// prober restores it into placement.
func (h *Harness) Restart(name string) error {
	hn, err := h.lookup(name)
	if err != nil {
		return err
	}
	hn.mu.Lock()
	defer hn.mu.Unlock()
	if hn.node != nil {
		return fmt.Errorf("cluster: node %q is running", name)
	}
	return h.start(hn, hn.addr)
}

// Close tears the cluster down: router first (stops the prober), then
// every live node.
func (h *Harness) Close() error {
	var first error
	if h.rt != nil {
		if err := h.rt.Close(); err != nil {
			first = err
		}
	}
	if h.routerSrv != nil {
		h.routerSrv.Close() //nolint:errcheck — teardown
	}
	h.mu.Lock()
	nodes := append([]*HarnessNode(nil), h.nodes...)
	h.mu.Unlock()
	for _, hn := range nodes {
		hn.mu.Lock()
		if hn.node != nil {
			hn.srv.Close() //nolint:errcheck — teardown
			if err := hn.node.Close(); err != nil && first == nil {
				first = err
			}
			hn.node, hn.srv = nil, nil
		}
		hn.mu.Unlock()
	}
	h.wg.Wait()
	return first
}
