// Command codecomprouter fronts a set of codecompd nodes as one
// sharded cluster: images are placed on a consistent-hash ring with
// replication, registrations fan out to every replica, and block reads
// are proxied with failover and p99-derived request hedging
// (internal/cluster).
//
// Endpoints (the serving surface is the same as one codecompd, so
// clients need not know they are talking to a cluster):
//
//	POST /images?name=N              register an image on its replicas
//	GET  /images                     catalog
//	GET  /images/{name}              one image's metadata
//	GET  /images/{name}/blocks/{i}   one block, via placement + hedging
//	DELETE /images/{name}            deregister everywhere
//	GET  /cluster/nodes              membership, ring epoch, member health
//	POST /cluster/nodes?name=N&addr=U  join a node (rebalances onto it)
//	DELETE /cluster/nodes/{name}     leave a node (rebalances off it)
//	GET  /healthz /readyz /metrics   the usual
//
// Member nodes are codecompd processes; give each a -data-dir so a
// restarted node recovers its images from disk instead of needing
// re-registration.
//
// Example:
//
//	codecompd -addr :8081 -data-dir /var/lib/codecomp/a &
//	codecompd -addr :8082 -data-dir /var/lib/codecomp/b &
//	codecompd -addr :8083 -data-dir /var/lib/codecomp/c &
//	codecomprouter -addr :8078 \
//	  -nodes a=http://localhost:8081,b=http://localhost:8082,c=http://localhost:8083
//	curl --data-binary @prog.samc 'localhost:8078/images?name=prog'
//	curl localhost:8078/images/prog/blocks/7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"codecomp/internal/cluster"
)

// parseNodes splits -nodes: comma-separated "name=url" members (a bare
// url uses the url as the ring name, which stays deterministic but
// makes ring membership depend on addressing — prefer explicit names).
func parseNodes(spec string) ([][2]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out [][2]string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			name, addr = part, part
		}
		if !strings.Contains(addr, "://") {
			return nil, fmt.Errorf("node %q: address %q needs a scheme (http://...)", name, addr)
		}
		out = append(out, [2]string{name, strings.TrimRight(addr, "/")})
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8078", "listen address")
	nodes := flag.String("nodes", "", "initial members, comma-separated name=url pairs")
	rf := flag.Int("replication", cluster.DefaultReplication, "replicas per image")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the hash ring")
	hedge := flag.Duration("hedge-default", 30*time.Millisecond, "hedge delay before enough samples derive a p99")
	probe := flag.Duration("probe-interval", 250*time.Millisecond, "member health-probe interval")
	upstreamTimeout := flag.Duration("upstream-timeout", 10*time.Second, "per-upstream-request timeout")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout")
	flag.Parse()

	members, err := parseNodes(*nodes)
	if err != nil {
		log.Fatalf("codecomprouter: %v", err)
	}

	rt := cluster.NewRouter(cluster.RouterOptions{
		VNodes:        *vnodes,
		Replication:   *rf,
		HedgeDefault:  *hedge,
		ProbeInterval: *probe,
		HTTP:          &http.Client{Timeout: *upstreamTimeout},
	})
	for _, m := range members {
		if err := rt.AddNode(m[0], m[1]); err != nil {
			log.Fatalf("codecomprouter: join %s: %v", m[0], err)
		}
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      rt.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("codecomprouter: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck — best-effort drain
	}()

	log.Printf("codecomprouter: serving on %s (%d members, rf=%d, vnodes=%d)",
		*addr, len(members), *rf, *vnodes)
	err = srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("codecomprouter: %v", err)
	}
	rt.Close()
}
