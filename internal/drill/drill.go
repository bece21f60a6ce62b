// Package drill holds cmd/loadgen's replays and acceptance drills. The
// paper's premise is that a compressed program, decompressed one cache
// block at a time on refill, gives back exactly the original bytes; the
// drills check that promise end to end, through the serving stack, under
// injected faults (Chaos, Subblock), node kills and joins (Cluster),
// overload (Overload) and live tier migration (Tiering).
//
// Every drill is built from the same pieces: one closed-loop engine
// (replay) whose workers pull byte windows from a stream, read them and
// compare each body with the original text; one window helper that says
// which bytes a block or span must hold; one check recorder; one
// waitFor; and one in-process node boot. The timer-paced open-loop
// engine (runOpenLoop) stays separate but uses the same verifier.
//
// A drill returns its number of invariant violations (0 is a pass) and
// an error only when it could not run at all.
package drill

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/cluster"
	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// Config is one loadgen run. Its fields mirror cmd/loadgen's flags; a
// drill reads only the fields it needs.
type Config struct {
	// Addr is the base URL of the external daemon the replay, range,
	// open-loop and chaos modes drive.
	Addr string
	// Profile is the synthetic SPEC95 program to generate.
	Profile string
	// Alg is the compression algorithm: samc, sadc, huff or rans.
	Alg string
	// Name is the image name on the server (default <profile>-<alg>).
	Name string
	// Trace is the number of instruction fetches per trace loop.
	Trace int
	// Loops is how many times the trace is replayed.
	Loops int
	// Seed keys the trace and the sub-block windows.
	Seed int64
	// Concurrency is the number of concurrent clients.
	Concurrency int
	// BlockSize is the cache block size used at compression time.
	BlockSize int
	// Policy, when set, A/Bs this policy against the sequential baseline.
	Policy string
	// TopK and PrefetchDepth tune the A/B policy and the offline
	// evaluator (0 = default).
	TopK, PrefetchDepth int
	// TraceFile, when set, receives the generated block trace.
	TraceFile string
	// SimCache is the offline cache capacity in blocks (0 = derived).
	SimCache int
	// RangeSpan is the span, in blocks, of the range replay's reads.
	RangeSpan int
	// SubblockReads is the sub-block drill's byte-window reads per phase.
	SubblockReads int
	// QPS is the open-loop offered load in requests per second.
	QPS float64
	// Deadline is the per-request deadline of the open-loop and overload
	// modes.
	Deadline time.Duration
	// Duration is how long the open-loop and overload load runs.
	Duration time.Duration
}

// DefaultConfig returns the configuration loadgen runs with when no
// flag is given.
func DefaultConfig() Config {
	return Config{
		Addr:          "http://localhost:8077",
		Profile:       "gcc",
		Alg:           "samc",
		Trace:         200000,
		Loops:         2,
		Seed:          1,
		Concurrency:   8,
		BlockSize:     32,
		SubblockReads: 2000,
		Deadline:      500 * time.Millisecond,
		Duration:      3 * time.Second,
	}
}

// Workload is the program a replay serves: a synthetic SPEC95 program,
// its compressed image and its block-change request stream.
type Workload struct {
	// Name is the image name on the server.
	Name string
	// Text is the original program every served byte is compared with.
	Text []byte
	// Image is the marshaled compressed image.
	Image []byte
	// BlockSize is the cache block size the image was compressed with.
	BlockSize int
	// Blocks is the image's block count.
	Blocks int
	// Reqs is one loop of the block-change request stream.
	Reqs []int
}

// NewWorkload generates cfg's program, compresses it and collapses its
// fetch trace to block-change granularity, like the refill engine behind
// a one-line buffer, which only fetches when the block changes. With
// cfg.TraceFile set it also writes the request stream there.
func NewWorkload(cfg Config) (*Workload, error) {
	w := &Workload{Name: cfg.Name, BlockSize: cfg.BlockSize}
	if w.Name == "" {
		w.Name = fmt.Sprintf("%s-%s", cfg.Profile, cfg.Alg)
	}
	prog := codecomp.GenerateMIPS(codecomp.MustProfile(cfg.Profile))
	w.Text = prog.Text()
	var err error
	if w.Image, w.Blocks, err = compress(w.Text, cfg.Alg, cfg.BlockSize); err != nil {
		return nil, err
	}
	fmt.Printf("loadgen: %s/%s: %d B text -> %d B image, %d blocks\n",
		cfg.Profile, cfg.Alg, len(w.Text), len(w.Image), w.Blocks)

	trace := prog.Trace(cfg.Seed, cfg.Trace)
	w.Reqs = make([]int, 0, len(trace)/4)
	last := -1
	for _, a := range trace {
		b := int(a-codecomp.TextBase) / cfg.BlockSize
		if b != last && b < w.Blocks {
			w.Reqs = append(w.Reqs, b)
			last = b
		}
	}
	fmt.Printf("loadgen: trace of %d fetches -> %d block requests/loop x %d loops, %d clients\n",
		len(trace), len(w.Reqs), cfg.Loops, cfg.Concurrency)

	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			return nil, err
		}
		_, err = w.trace().WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("loadgen: wrote %d-access trace to %s\n", len(w.Reqs), cfg.TraceFile)
	}
	return w, nil
}

// trace is the request stream in traceprof form.
func (w *Workload) trace() *traceprof.Trace {
	return &traceprof.Trace{Image: w.Name, Blocks: w.Blocks, Accesses: w.Reqs}
}

// program is the workload's text cut into its blocks.
func (w *Workload) program() program { return program{w.Text, w.BlockSize} }

// upload registers an image and echoes the server's metadata for it.
func upload(cc *client.Client, name string, image []byte) error {
	info, err := cc.Upload(name, image)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: uploaded as %q: %s, %d blocks, ratio %.4f\n",
		name, info.Format, info.Blocks, info.Ratio)
	return nil
}

// compress builds a marshaled single-codec image of text.
func compress(text []byte, alg string, blockSize int) ([]byte, int, error) {
	var c interface {
		Marshal() []byte
		NumBlocks() int
	}
	var err error
	switch alg {
	case "samc":
		c, err = codecomp.CompressSAMC(text, codecomp.SAMCOptions{BlockSize: blockSize, Connected: true})
	case "sadc":
		c, err = codecomp.CompressSADCMIPS(text, codecomp.SADCOptions{BlockSize: blockSize})
	case "huff":
		c, err = codecomp.CompressHuffman(text, blockSize)
	case "rans":
		c, err = codecomp.CompressRANS(text, codecomp.RANSOptions{BlockSize: blockSize})
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q (want samc, sadc, huff or rans)", alg)
	}
	if err != nil {
		return nil, 0, err
	}
	return c.Marshal(), c.NumBlocks(), nil
}

// program is the original text a drill checks served bytes against,
// cut into blocks of blockSize bytes.
type program struct {
	text      []byte
	blockSize int
}

// window is the byte range [off, off+n) of the original text that one
// read must return exactly.
type window struct{ off, n int }

// span is the window of blocks [first, last], clamped to the end of the
// text: the one place a block's expected bytes are worked out.
func (p program) span(first, last int) window {
	hi := min((last+1)*p.blockSize, len(p.text))
	return window{first * p.blockSize, hi - first*p.blockSize}
}

// block is the window of block b.
func (p program) block(b int) window { return p.span(b, b) }

// first and last are the blocks a span window covers.
func (p program) first(w window) int { return w.off / p.blockSize }
func (p program) last(w window) int  { return (w.off + w.n - 1) / p.blockSize }

// blocks is the number of blocks in the text.
func (p program) blocks() int { return (len(p.text) + p.blockSize - 1) / p.blockSize }

// exact reports whether body is exactly the text under w.
func (p program) exact(w window, body []byte) bool {
	return bytes.Equal(body, p.text[w.off:w.off+w.n])
}

// replay is the closed-loop engine behind every verified replay: workers
// pull windows from next until it reports false, read each one, and
// compare the body with the original text.
type replay struct {
	prog    program
	workers int
	// next yields the stream; the engine calls it under one lock.
	next func() (window, bool)
	// read issues one request for a window.
	read func(window) ([]byte, error)
	// lat, when non-nil, records every request's latency.
	lat *obsv.Histogram
	// onDone, when non-nil, is called after every request with the
	// number of requests finished so far.
	onDone func(n int64)
	// label names the drill in corruption reports.
	label string
}

// replayResult counts one replay's outcomes.
type replayResult struct {
	ok, failed, corrupt int64
	bytes               int64 // body bytes of the ok reads
	elapsed             time.Duration
}

// run drives the replay to the end of its stream.
func (r replay) run() replayResult {
	var ok, failed, corrupt, nbytes, done atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				w, more := r.next()
				mu.Unlock()
				if !more {
					return
				}
				t0 := time.Now()
				body, err := r.read(w)
				if r.lat != nil {
					r.lat.Observe(time.Since(t0))
				}
				switch {
				case err != nil:
					failed.Add(1)
				case !r.prog.exact(w, body):
					corrupt.Add(1)
					fmt.Printf("loadgen: %s: CORRUPT BYTES SERVED for bytes [%d,%d)\n", r.label, w.off, w.off+w.n)
				default:
					ok.Add(1)
					nbytes.Add(int64(len(body)))
				}
				if r.onDone != nil {
					r.onDone(done.Add(1))
				}
			}
		}()
	}
	wg.Wait()
	return replayResult{ok: ok.Load(), failed: failed.Load(), corrupt: corrupt.Load(),
		bytes: nbytes.Load(), elapsed: time.Since(start)}
}

// stream yields f(0), ..., f(n-1), then ends.
func stream(n int, f func(i int) window) func() (window, bool) {
	i := 0
	return func() (window, bool) {
		if i >= n {
			return window{}, false
		}
		i++
		return f(i - 1), true
	}
}

// streamWhile yields f() for as long as cond holds.
func streamWhile(cond func() bool, f func() window) func() (window, bool) {
	return func() (window, bool) {
		if !cond() {
			return window{}, false
		}
		return f(), true
	}
}

// blockReplay replays loops passes of the workload's request stream as
// block reads through cc. Callers may set the latency histogram, the
// onDone hook or a different read before running it.
func (w *Workload) blockReplay(cc *client.Client, label string, loops, workers int) replay {
	p := w.program()
	return replay{
		prog: p, workers: workers, label: label,
		next: stream(loops*len(w.Reqs), func(i int) window { return p.block(w.Reqs[i%len(w.Reqs)]) }),
		read: func(win window) ([]byte, error) {
			data, _, err := cc.Block(w.Name, p.first(win))
			return data, err
		},
	}
}

// checks records a drill's invariant verdicts, printing each one.
type checks struct {
	drill  string
	failed int
}

// check records one invariant.
func (c *checks) check(ok bool, what string) {
	if ok {
		fmt.Printf("loadgen: %s: ok   - %s\n", c.drill, what)
		return
	}
	fmt.Printf("loadgen: %s: FAIL - %s\n", c.drill, what)
	c.failed++
}

// waitFor polls cond, backing off from 100µs to 100ms between polls,
// until it holds or timeout has passed, and reports whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for pause := 100 * time.Microsecond; ; pause = min(2*pause, 100*time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pause)
	}
}

// watch calls poll every interval on one goroutine until the returned
// stop is called. stop waits for the last poll, so whatever poll wrote
// is safe to read once it returns.
func watch(every time.Duration, poll func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// localNode is an in-process cluster node over a temporary data
// directory, served over real HTTP, so a drill needs no external daemon
// yet still crosses the client and the vectored response path. Its
// fault routes are open: nothing outside the process can reach it.
type localNode struct {
	*cluster.Node
	srv *httptest.Server
	dir string
}

// bootNode starts a local node.
func bootNode(name string, opts romserver.Options) (*localNode, error) {
	dir, err := os.MkdirTemp("", "loadgen-"+name+"-*")
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(cluster.NodeOptions{
		Name: name, DataDir: dir, Server: opts, AllowFaults: true,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(node.Handler())
	return &localNode{Node: node, srv: srv, dir: dir}, nil
}

// Close stops the listener and the node and removes the data directory.
func (n *localNode) Close() {
	n.srv.Close()
	n.Node.Close()
	os.RemoveAll(n.dir)
}

// The metric families the drills read off a node's /metrics, by name.
// A renamed family must fail a drill, not read as an idle counter:
// counters returns an error for a family a scrape lacks, and
// TestDrillFamiliesRegistered checks that a fresh node registers every
// family in drillFamilies.
const (
	famCacheHits          = "blockcache_hits_total"
	famCacheMisses        = "blockcache_misses_total"
	famCacheDeduped       = "blockcache_deduped_total"
	famCacheEvictions     = "blockcache_evictions_total"
	famPrefetchHits       = "blockcache_prefetch_hits_total"
	famPrefetchWasted     = "blockcache_prefetch_evicted_total"
	famPrefetchIssued     = "romserver_prefetch_issued_total"
	famPrefetchCompleted  = "romserver_prefetch_completed_total"
	famPrefetchDropped    = "romserver_prefetch_dropped_total"
	famDecompressions     = "romserver_decompressions_total"
	famCorruptBlocks      = "romserver_corrupt_blocks_total"
	famCodecPanics        = "romserver_codec_panics_total"
	famRetries            = "romserver_retries_total"
	famSubblockReads      = "romserver_subblock_reads_total"
	famPartialDecodes     = "romserver_partial_decodes_total"
	famPartialDecodedSize = "romserver_partial_decoded_bytes_total"
	famOverloadLevel      = "overload_level"
	famRetryDenied        = "overload_retry_denied_total"
	famHTTPRequest        = "codecompd_http_request_seconds"
	famQueueWait          = "romserver_queue_wait_seconds"
	famDecode             = "romserver_decode_seconds"
	famVerify             = "romserver_verify_seconds"
	famBlockLoad          = "romserver_block_load_seconds"
)

var drillFamilies = []string{
	famCacheHits, famCacheMisses, famCacheDeduped, famCacheEvictions,
	famPrefetchHits, famPrefetchWasted, famPrefetchIssued, famPrefetchCompleted, famPrefetchDropped,
	famDecompressions, famCorruptBlocks, famCodecPanics, famRetries,
	famSubblockReads, famPartialDecodes, famPartialDecodedSize,
	famOverloadLevel, famRetryDenied,
	famHTTPRequest, famQueueWait, famDecode, famVerify, famBlockLoad,
}

// counters reads the named unlabeled counter and gauge families off one
// scrape. A family the scrape lacks is an error, never a zero.
func counters(p obsv.Parsed, names ...string) (map[string]int64, error) {
	out := make(map[string]int64, len(names))
	for _, name := range names {
		v, ok := p.Value(name, nil)
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
		out[name] = int64(v)
	}
	return out, nil
}

// scrape reads the named families off cc's /metrics; see counters.
func scrape(cc *client.Client, names ...string) (map[string]int64, error) {
	p, err := cc.Metrics()
	if err != nil {
		return nil, err
	}
	return counters(p, names...)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// rnd trims a duration to three significant-ish digits for a report.
func rnd(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
