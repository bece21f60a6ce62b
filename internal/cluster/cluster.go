// Package cluster holds the one HTTP serving node, which cmd/codecompd
// runs on its own, and turns it into an N-node sharded service. It
// provides the four pieces a cluster needs:
//
//   - a consistent-hash ring (ring.go): virtual nodes, a configurable
//     replication factor, and generation-stamped epochs. Rings are
//     immutable values swapped atomically, so an in-flight request
//     resolves its whole replica set against one placement and can
//     never observe a half-applied rebalance;
//   - a node (node.go, api.go): one romserver.Server behind the full
//     serving HTTP API — the only one in the repo; cmd/codecompd is one
//     node built from its flags — with optional write-through disk
//     persistence (store.go) so a restarted node recovers its
//     registered images without re-registration. A cache miss always
//     decodes locally, verified against the image's integrity sidecar,
//     as the paper's refill engine decompresses from local memory;
//   - a router (router.go): the thin proxy tier. It places images on
//     the ring, fans registrations out to all replicas, serves block
//     reads with request hedging (a second replica is tried after a
//     p99-derived delay), ejects nodes from placement using the same
//     faultlab health state machine images use (romserver.HealthTracker),
//     probes and restores them, rebalances on node join/leave, and
//     aggregates per-node stats;
//   - an in-process harness (harness.go): real listeners, real HTTP,
//     kill/restart of individual nodes — the substrate for the loadgen
//     -cluster chaos drill and the package's own tests.
//
// The shared HTTP client for the /images + /blocks API lives in the
// cluster/client subpackage and is used by the router, the drills and
// cmd/loadgen.
package cluster
