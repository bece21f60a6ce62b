// Command codecompd serves compressed-ROM images over HTTP: upload a
// marshaled SAMC/SADC/byte-Huffman image once, then fetch decompressed
// cache blocks at random access, exactly as an embedded refill engine would
// — but concurrently, behind a sharded decompression cache with sequential
// prefetch (internal/romserver).
//
// codecompd is one cluster.Node named "codecompd", built from its flags
// and served over HTTP; the Node doc comment in internal/cluster lists
// every endpoint (`go doc codecomp/internal/cluster Node`). A standalone
// daemon is therefore also a full cluster member: the router can proxy
// to it.
//
// Flags:
//
//	-addr                   listen address (:8077)
//	-cache-blocks, -cache-shards  decompressed-block cache size and sharding
//	-workers, -queue        decompression worker pool and its queue depth
//	-prefetch               blocks warmed after a demand miss (-1 disables)
//	-trace-buffer           per-image access-trace ring (-1 disables)
//	-max-image-bytes        largest accepted upload or posted trace
//	-load-timeout, -retries per-block decode deadline and attempts
//	-reverify               re-verify period for unhealthy images
//	-trace-ring, -trace-sample  /debug/traces ring size and sampling rate
//	-data-dir               persist images here and recover them on boot
//	-overload               admission control, retry budgets and brownout
//	-tiering-interval       background recompression period for tiered images
//	-enable-fault-injection allow PUT /images/{name}/faults (chaos testing)
//	-enable-pprof           mount net/http/pprof under /debug/pprof/ (off by
//	                        default; the heap and CPU profiles expose internals)
//	-read-timeout, -write-timeout, -idle-timeout  HTTP server timeouts
//
// A duration flag set to 0 disables what it times. `codecompd -h` prints
// every flag with its default.
//
// Example:
//
//	codecompd -addr :8077 &
//	codecomp -alg samc -in prog.bin -save prog.samc
//	curl --data-binary @prog.samc 'localhost:8077/images?name=prog'
//	curl localhost:8077/images/prog/blocks/7
//	curl -X POST localhost:8077/images/prog/train
//	curl -X PUT 'localhost:8077/images/prog/policy?policy=markov'
//	curl localhost:8077/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"codecomp/internal/cluster"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// parseFlags turns a command line into the node's options, the HTTP
// server to serve it on (Handler unset) and whether pprof is mounted.
func parseFlags(args []string) (cluster.NodeOptions, *http.Server, bool) {
	fs := flag.NewFlagSet("codecompd", flag.ExitOnError)
	addr := fs.String("addr", ":8077", "listen address")
	cacheBlocks := fs.Int("cache-blocks", 8192, "decompressed-block cache capacity")
	cacheShards := fs.Int("cache-shards", 16, "cache shard count")
	workers := fs.Int("workers", 8, "decompression worker pool size")
	queueDepth := fs.Int("queue", 0, "pool queue depth (0 = 4x workers)")
	prefetch := fs.Int("prefetch", 4, "blocks warmed after a demand miss (-1 disables)")
	traceBuffer := fs.Int("trace-buffer", 65536, "per-image access-trace ring size (-1 disables recording)")
	maxImage := fs.Int64("max-image-bytes", cluster.DefaultMaxImageBytes, "largest accepted upload")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	loadTimeout := fs.Duration("load-timeout", 5*time.Second, "per-block decompression deadline (0 disables)")
	retries := fs.Int("retries", 3, "decompression attempts per block before failing the read")
	reverify := fs.Duration("reverify", 2*time.Second, "background re-verify interval for unhealthy images (0 disables)")
	enableFaults := fs.Bool("enable-fault-injection", false, "allow PUT /images/{name}/faults (chaos testing)")
	enablePprof := fs.Bool("enable-pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceRing := fs.Int("trace-ring", 256, "how many completed block-load traces /debug/traces keeps")
	traceSample := fs.Int("trace-sample", 16, "trace one block load in N (1 traces every load)")
	dataDir := fs.String("data-dir", "", "persist registered images here and recover them on boot (empty disables)")
	enableOverload := fs.Bool("overload", true, "adaptive admission control, retry budgets and brownout shedding (internal/overload)")
	tieringInterval := fs.Duration("tiering-interval", 10*time.Second, "background recompression pass period for tiered images (0 disables)")
	fs.Parse(args) //nolint:errcheck — ExitOnError exits instead

	var ovl *overload.Config
	if *enableOverload {
		ovl = &overload.Config{}
	}
	opts := cluster.NodeOptions{
		Name:          "codecompd",
		DataDir:       *dataDir,
		MaxImageBytes: *maxImage,
		AllowFaults:   *enableFaults,
		Server: romserver.Options{
			CacheBlocks:      *cacheBlocks,
			CacheShards:      *cacheShards,
			Workers:          *workers,
			QueueDepth:       *queueDepth,
			PrefetchDepth:    *prefetch,
			TraceBuffer:      *traceBuffer,
			LoadTimeout:      disabledIfZero(*loadTimeout),
			LoadAttempts:     *retries,
			ReverifyInterval: disabledIfZero(*reverify),
			Tracer:           obsv.NewTracer(*traceRing, *traceSample),
			Overload:         ovl,
			Tiering:          &romserver.TieringOptions{Interval: disabledIfZero(*tieringInterval)},
		},
	}
	srv := &http.Server{
		Addr:         *addr,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	return opts, srv, *enablePprof
}

// disabledIfZero maps a flag's "0 disables" onto the romserver's
// negative "disabled": a zero there means the default.
func disabledIfZero(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

// handler is the node's API, behind a pprof mux only when enabled, so
// the default path has no extra mux hop.
func handler(node *cluster.Node, enablePprof bool) http.Handler {
	if !enablePprof {
		return node.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", node.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	opts, srv, enablePprof := parseFlags(os.Args[1:])
	node, err := cluster.NewNode(opts)
	if err != nil {
		log.Fatalf("codecompd: %v", err)
	}
	srv.Handler = handler(node, enablePprof)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("codecompd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck — best-effort drain
	}()

	so := opts.Server
	log.Printf("codecompd: serving on %s (cache %d blocks / %d shards, %d workers, prefetch %d)",
		srv.Addr, so.CacheBlocks, so.CacheShards, so.Workers, so.PrefetchDepth)
	if opts.AllowFaults {
		log.Printf("codecompd: FAULT INJECTION ENABLED — do not run in production")
	}
	if enablePprof {
		log.Printf("codecompd: pprof enabled on /debug/pprof/")
	}
	err = srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("codecompd: %v", err)
	}
	// HTTP listener is down; drain the decompression pool.
	node.Close()
}
