// The zero-copy read path: batched range reads and byte-granular
// sub-block reads served as a View — an ordered list of parts backed by
// blockcache leases (cached blocks) and freshly decoded buffers (miss
// blocks) — instead of a concatenation buffer. A View writes itself to
// the response via net.Buffers, so the HTTP layer never assembles the
// payload either; Close releases the leases, which is what lets the
// cache retire evicted or replaced blocks underneath long reads without
// copying them defensively.
//
// Sub-block reads add partial decode: when a read's tail ends mid-block
// on a healthy, fault-free image, the final miss block is decoded only
// up to the requested offset (codecomp.AppendBlockPrefix) and the
// result — an unverifiable prefix — is served but never cached. Every
// other miss block still takes the hardened, sidecar-verified load path
// and lands in the cache when the view is closed.
package romserver

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"codecomp"
	"codecomp/internal/blockcache"
)

// View is one range or sub-block read's result: the requested bytes as
// an ordered list of parts, zero-copy views into leased cache blocks
// and decode buffers. The caller must Close the view when done — until
// then the leased blocks cannot be freed by eviction, and the blocks
// its miss runs verified are not yet in the cache — and must not use
// the parts afterwards. Views are pooled; use after Close is a bug.
type View struct {
	parts  [][]byte
	leases []blockcache.Lease
	// inserts are the verified blocks the view's miss runs decoded,
	// which Close offers to the cache unless img was deregistered
	// meanwhile.
	inserts []cacheInsert
	srv     *Server
	img     *image
	length  int
	stats   RangeStats
	// decodedBytes is how many bytes of codec output this read actually
	// paid for: full blocks for verified loads, only the requested
	// prefix for a partial tail decode, zero for cached blocks.
	decodedBytes int
	open         bool

	// Between dispatchView and awaitView: the view's first block, its
	// miss runs and one reply per enqueued run.
	first   int
	runs    []missRun
	replies []*runReply
	// admitted is set while the overload layer has admitted the view's
	// misses and their one goodput outcome is not yet reported.
	admitted bool
}

// cacheInsert is one verified block waiting in its view for Close.
type cacheInsert struct {
	key  blockcache.Key
	data []byte
}

var viewPool = sync.Pool{New: func() any { return &View{} }}

func newView() *View {
	v := viewPool.Get().(*View)
	v.open = true
	return v
}

// Len is the total byte length across parts.
func (v *View) Len() int { return v.length }

// Stats reports how the read was served (cached blocks, pool
// dispatches, decoded blocks).
func (v *View) Stats() RangeStats { return v.stats }

// DecodedBytes is how many bytes of codec output the read decoded: the
// sum of full-block loads plus the partial tail prefix, zero when every
// block came from the cache. A sub-block read that ends mid-block on a
// prefix-capable codec reports strictly less than the covering blocks'
// total size — the whole point of the partial path.
func (v *View) DecodedBytes() int { return v.decodedBytes }

// AppendTo appends the view's bytes to dst and returns it, for callers
// that need the range as one contiguous slice.
func (v *View) AppendTo(dst []byte) []byte {
	for _, p := range v.parts {
		dst = append(dst, p...)
	}
	return dst
}

// WriteTo writes the parts to w in order: a net.Conn gets one vectored
// writev through net.Buffers, anything else (an http.ResponseWriter's
// buffered conn, io.Discard in benchmarks) gets one Write per part —
// either way no concatenation buffer is built and the generic path
// allocates nothing. The returned count is the bytes w accepted; a
// short write with no error returns io.ErrShortWrite. The conn path is
// single-use (a partial write re-slices the parts in place); the leases
// stay held until Close.
func (v *View) WriteTo(w io.Writer) (int64, error) {
	if c, ok := w.(net.Conn); ok {
		nb := net.Buffers(v.parts)
		return nb.WriteTo(c)
	}
	var n int64
	for _, p := range v.parts {
		m, err := w.Write(p)
		n += int64(m)
		if err == nil && m < len(p) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

var _ io.WriterTo = (*View)(nil)

// Close offers the blocks the view's miss runs verified to the cache
// (see insertDecoded for which it keeps), then releases every lease the
// view holds and recycles it. A view closed after an error offers the
// verified blocks it collected before the error. A view whose image was
// removed or replaced while it was open inserts nothing: no reader
// could hit those blocks. Safe to call once per view; the view and its
// parts are invalid afterwards.
func (v *View) Close() {
	if !v.open {
		return
	}
	v.open = false
	if len(v.inserts) > 0 && !v.img.removed.Load() {
		v.srv.insertDecoded(v.img, v.inserts)
		// A deregistration that lands during the inserts may have
		// invalidated before them; drop them again. One that lands
		// after this check invalidates after the inserts itself.
		if v.img.removed.Load() {
			v.srv.cache.InvalidateImage(v.img.id)
		}
	}
	clear(v.inserts)
	v.inserts = v.inserts[:0]
	v.img, v.srv = nil, nil
	for i := range v.leases {
		v.leases[i].Release()
	}
	v.leases = v.leases[:0]
	for i := range v.parts {
		v.parts[i] = nil
	}
	v.parts = v.parts[:0]
	// A ticket abandoned by an early error may still answer its reply,
	// so those replies are dropped rather than recycled.
	clear(v.replies)
	v.replies = v.replies[:0]
	v.runs = v.runs[:0]
	v.length = 0
	v.decodedBytes = 0
	v.stats = RangeStats{}
	viewPool.Put(v)
}

// insertDecoded is the scan-resistant insert rule for the blocks a
// range, sub-block or /text read decoded. A block goes in without
// eviction if its cache shard has room. Into a full shard it goes only
// if the bulk admission rule admits it: a view turned it away before,
// and at most Options.CacheBlocks other blocks were turned away since
// (blockcache.Admission, over the stamps in img.seen). Any other block
// is turned away and stamped. The stamp is checked first because it
// needs no lock. Inserting every block instead turns a bulk read over
// more code than the cache holds into an LRU cycling on a loop: each
// insert evicts a block before it is read again, so the cache pays an
// insert and an eviction per block and serves almost nothing. Under
// this rule the blocks that filled the cache keep serving later passes
// of a loop longer than two capacities, with no evictions, and a block
// read twice within one capacity of turned-away blocks still displaces
// an old one. Demand reads and prefetch insert through the cache's
// loader path and are not affected.
func (s *Server) insertDecoded(img *image, ins []cacheInsert) {
	for _, in := range ins {
		seen := &img.seen[in.key.Block]
		switch {
		case s.bulk.Admit(seen.Load()):
			s.cache.Put(in.key, in.data)
		case !s.cache.PutIfRoom(in.key, in.data):
			seen.Store(s.bulk.Skip())
		}
	}
}

// missRun is one contiguous run of blocks absent from the cache, or,
// when merged, a span of neighbouring runs and the cached blocks
// between them, which one ticket serves by re-peeking the cached ones.
type missRun struct {
	first, last int
	merged      bool
}

// mergeRuns folds runs into n tickets of neighbouring runs, as even in
// run count as integer division makes them.
func mergeRuns(runs []missRun, n int) []missRun {
	k := len(runs)
	for g := range n {
		lo, hi := g*k/n, (g+1)*k/n-1
		runs[g] = missRun{runs[lo].first, runs[hi].last, hi > lo}
	}
	return runs[:n]
}

// RangeView serves blocks [first,last] as a zero-copy View: cached
// blocks are leased (Peek semantics — no LRU promotion, no demand
// accounting), each contiguous miss run is one worker-pool dispatch
// that decodes and verifies its blocks. The verified blocks land in the
// cache when the view is closed, so a caller that writes the view out
// first answers its client before paying for the inserts. A range read
// triggers no speculative prefetch: the range already states what is
// wanted. ctx carries the read's deadline and cancellation into
// admission and the pool queue. The caller must Close the view.
func (s *Server) RangeView(ctx context.Context, name string, first, last int) (*View, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if first < 0 || last >= img.blocks || first > last {
		return nil, fmt.Errorf("%w: [%d,%d] of %q [0,%d)", ErrOutOfRange, first, last, name, img.blocks)
	}
	s.met.rangeReads.Inc()
	start := time.Now()
	v := newView()
	if err := s.viewBlocks(ctx, img, v, first, last, 0); err != nil {
		v.Close()
		return nil, err
	}
	for _, p := range v.parts {
		v.length += len(p)
	}
	s.met.rangeRead.Observe(time.Since(start))
	return v, nil
}

// ReadAtContext is the byte-granular read path: the request's byte
// window [off, off+n) is mapped onto covering blocks through the
// image's offset table, cached blocks are served zero-copy via leases,
// and miss runs decode on the worker pool exactly like a batched range
// read — including overload admission, brownout shedding and
// quarantine. One refinement: when the window's tail ends mid-block on
// a healthy image with no fault injector, the final miss block is
// decoded only up to the needed offset and the (unverifiable) prefix
// is served without being cached; every full block still takes the
// verified path and lands in the cache when the view is closed. The
// caller must Close the view.
func (s *Server) ReadAtContext(ctx context.Context, name string, off, n int) (*View, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	offs := img.offsets
	total := int(offs[len(offs)-1])
	// n > total-off, not off+n > total: the sum wraps for a huge n.
	if off < 0 || n < 0 || n > total-off {
		return nil, fmt.Errorf("%w: %d bytes at offset %d of %q [0,%d)", ErrOutOfRange, n, off, name, total)
	}
	s.met.subblockReads.Inc()
	v := newView()
	if n == 0 {
		return v, nil
	}
	start := time.Now()
	end := off + n
	first := blockFor(offs, off)
	last := blockFor(offs, end-1)
	// Partial decode is gated to images where skipping the sidecar check
	// is defensible: healthy, and no fault injector interposed. Anything
	// else decodes the tail block fully through the verified path.
	limit := 0
	if end < int(offs[last+1]) && img.faults.Load() == nil && img.health.State() == Healthy {
		limit = end - int(offs[last])
	}
	if err := s.viewBlocks(ctx, img, v, first, last, limit); err != nil {
		v.Close()
		return nil, err
	}
	// Trim the assembled full blocks (and the already-short partial
	// tail) to the requested byte window.
	for i := range v.parts {
		bs := int(offs[first+i])
		lo, hi := 0, len(v.parts[i])
		if off > bs {
			lo = off - bs
		}
		if end-bs < hi {
			hi = end - bs
		}
		v.parts[i] = v.parts[i][lo:hi]
		v.length += hi - lo
	}
	s.met.subblockBytes.Add(int64(v.length))
	s.met.subblockRead.Observe(time.Since(start))
	return v, nil
}

// viewBlocks fills v.parts with blocks [first,last]: leases for cached
// blocks, one pool dispatch per contiguous miss run. limit > 0 marks a
// sub-block read whose tail block (when it misses) only needs its
// first limit bytes.
func (s *Server) viewBlocks(ctx context.Context, img *image, v *View, first, last, limit int) error {
	if err := s.dispatchView(ctx, img, v, first, last, limit, false); err != nil {
		return err
	}
	return s.awaitView(ctx, img, v)
}

// dispatchView is the first half of viewBlocks: it records blocks
// [first,last] in the image's access trace, leases the cached ones into
// v.parts, runs the overload admission gates over the miss runs (between
// miss discovery and enqueue, so a fully cached read is never shed) and
// enqueues one pool ticket per run without waiting for any. A read takes
// at most Options.Workers tickets, and merge makes that one: past the
// cap, neighbouring runs share a ticket whose worker re-peeks the cached
// blocks in between, so a read fragmented by a partly warm cache holds
// no more queue slots than the pool has workers to run them. awaitView
// collects the tickets; in between, the caller is free to write out an
// earlier view while these decode.
func (s *Server) dispatchView(ctx context.Context, img *image, v *View, first, last, limit int, merge bool) error {
	st := &v.stats
	st.Blocks = last - first + 1
	v.first = first
	v.srv = s
	v.img = img
	if img.recorder != nil {
		for b := first; b <= last; b++ {
			img.recorder.Record(b)
		}
	}
	if cap(v.parts) >= st.Blocks {
		v.parts = v.parts[:st.Blocks]
	} else {
		v.parts = make([][]byte, st.Blocks)
	}
	runs := v.runs[:0]
	for b := first; b <= last; b++ {
		if ls, ok := s.cache.AcquirePeek(img.key(b)); ok {
			v.leases = append(v.leases, ls)
			v.parts[b-first] = ls.Bytes()
			st.CachedBlocks++
			continue
		}
		if k := len(runs); k > 0 && runs[k-1].last == b-1 {
			runs[k-1].last = b
		} else {
			runs = append(runs, missRun{first: b, last: b})
		}
	}
	v.runs = runs
	if len(runs) == 0 {
		return nil
	}
	if s.ovl != nil {
		if err := s.admit(ctx, img, runs); err != nil {
			return err
		}
		v.admitted = true
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			v.outcome(err)
			return err
		}
	}
	tickets := s.opts.Workers
	if merge {
		tickets = 1
	}
	if len(runs) > tickets {
		runs = mergeRuns(runs, tickets)
		v.runs = runs
	}
	for _, r := range runs {
		t := task{img: img, block: r.first, more: r.last - r.first, merged: r.merged}
		if limit > 0 && r.last == last {
			t.limit = limit
		}
		reply, err := s.dispatch(ctx, t)
		if err != nil {
			v.outcome(err)
			return err
		}
		v.replies = append(v.replies, reply)
		st.Dispatches++
		s.met.rangeDispatches.Inc()
	}
	return nil
}

// awaitView is the second half of viewBlocks: it waits for every ticket
// dispatchView enqueued, drops the loaded blocks into their parts and
// records the verified ones for Close to insert, also those of a run
// that failed part-way. It reports the read's goodput outcome.
func (s *Server) awaitView(ctx context.Context, img *image, v *View) (err error) {
	defer func() { v.outcome(err) }()
	st := &v.stats
	for i, r := range v.replies {
		ok, err := s.await(ctx, r)
		if ok {
			first := v.runs[i].first
			for j, rb := range r.blocks {
				v.parts[first-v.first+j] = rb.data
				if rb.verified {
					v.inserts = append(v.inserts, cacheInsert{img.key(first + j), rb.data})
				}
			}
			st.DecodedBlocks += r.decoded
			v.decodedBytes += r.decodedBytes
			r.recycle()
		}
		if err != nil {
			return err
		}
	}
	s.met.rangeCachedBlocks.Add(int64(st.CachedBlocks))
	s.met.rangeDecodedBlocks.Add(int64(st.DecodedBlocks))
	return nil
}

// outcome reports err as the view's goodput outcome, once, if the
// overload layer admitted its misses (see reportOutcome).
func (v *View) outcome(err error) {
	if v.admitted {
		v.admitted = false
		v.srv.reportOutcome(err)
	}
}

// decodePrefix decodes only the first limit bytes of one block — the
// tail block of a sub-block read. A prefix cannot be checked against a
// whole-block CRC, so this bypasses the integrity sidecar; callers
// gate it to healthy images without a fault injector, and the result
// is never cached. Panics are contained like the hardened path's, and
// the decode runs as a guarded section under the worker's watchdog.
// Like loadVerified, it starts at the caller's clock reading start.
func (w *poolWorker) decodePrefix(ctx context.Context, img *image, block, limit int, start time.Time) (data []byte, decoded int, err error) {
	s := w.s
	defer func() {
		if r := recover(); r != nil {
			s.met.codecPanics.Inc()
			data, decoded, err = nil, 0, fmt.Errorf("%w: block %d of %q: %v", ErrCodecPanic, block, img.name, r)
		}
	}()
	if err := w.guard(ctx, block, start); err != nil {
		return nil, 0, err
	}
	out, n, err := codecomp.AppendBlockPrefix(img.codec, make([]byte, 0, limit), block, limit)
	d := time.Since(start)
	if outlived := w.settle(); outlived != nil {
		return nil, 0, outlived
	}
	if err != nil {
		return nil, 0, err
	}
	w.acct.decode.Observe(d)
	w.acct.decompressions++
	s.met.partialDecodes.Inc()
	s.met.partialDecodedBytes.Add(int64(n))
	return out, n, nil
}

// blockFor returns the index of the block containing absolute byte
// off: the i with offs[i] <= off < offs[i+1]. The caller guarantees
// 0 <= off < offs[len(offs)-1].
func blockFor(offs []int64, off int) int {
	lo, hi := 0, len(offs)-1
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(off) < offs[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// textWindow is how many blocks one WriteText window covers: a cold
// window is one run ticket, so an image takes ceil(blocks/textWindow)
// dispatches.
const textWindow = 64

// WriteText streams the whole decompressed program to w; see
// WriteTextContext.
func (s *Server) WriteText(name string, w io.Writer) (int64, error) {
	return s.WriteTextContext(context.Background(), name, w)
}

// WriteTextContext streams the whole decompressed program to w without
// materializing it — the /text endpoint's backend. Every block decodes
// on its own, so the read is pipelined: the image is walked in
// textWindow-block windows, each a batched range read (leased cached
// blocks, one verifying pool ticket spanning the window's misses,
// overload admission per window), and up to Options.Workers windows are
// in flight while the oldest is awaited and written, so later windows
// decode on other workers meanwhile. A window's verified blocks land in
// the cache when it is closed, right after it is written. An expired
// ctx stops further dispatches; windows still in flight when the call
// returns early are abandoned, and their tickets still queued are
// retired undecoded. Returns how many bytes were written before any
// error.
func (s *Server) WriteTextContext(ctx context.Context, name string, w io.Writer) (n int64, err error) {
	img, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	depth := s.opts.Workers
	ahead := make([]*View, 0, depth)
	defer func() {
		// Windows still in flight were abandoned by the read's error.
		for _, v := range ahead {
			v.outcome(err)
			v.Close()
		}
	}()
	for next := 0; next < img.blocks || len(ahead) > 0; {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		for next < img.blocks && len(ahead) < depth {
			last := min(next+textWindow, img.blocks) - 1
			v := newView()
			ahead = append(ahead, v)
			if err := s.dispatchView(ctx, img, v, next, last, 0, true); err != nil {
				return n, err
			}
			next = last + 1
		}
		v := ahead[0]
		if err := s.awaitView(ctx, img, v); err != nil {
			return n, err
		}
		m, err := v.WriteTo(w)
		n += m
		if err != nil {
			return n, err
		}
		v.Close()
		ahead = append(ahead[:0], ahead[1:]...)
	}
	return n, nil
}
