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
// and lands in the cache.
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
// then the leased blocks cannot be freed by eviction — and must not use
// the parts afterwards. Views are pooled; use after Close is a bug.
type View struct {
	parts  [][]byte
	leases []blockcache.Lease
	length int
	stats  RangeStats
	// decodedBytes is how many bytes of codec output this read actually
	// paid for: full blocks for verified loads, only the requested
	// prefix for a partial tail decode, zero for cached blocks.
	decodedBytes int
	open         bool

	// Between dispatchView and awaitView: the view's first block, its
	// miss runs and one reply channel per enqueued run.
	first   int
	runs    []missRun
	replies []chan rangeResult
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

// Parts returns the view's parts in order. Read-only, valid until
// Close.
func (v *View) Parts() [][]byte { return v.parts }

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
// allocates nothing. The conn path is single-use (a partial write
// re-slices the parts in place); the leases stay held until Close.
func (v *View) WriteTo(w io.Writer) (int64, error) {
	if c, ok := w.(net.Conn); ok {
		nb := net.Buffers(v.parts)
		return nb.WriteTo(c)
	}
	var n int64
	for _, p := range v.parts {
		m, err := w.Write(p)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

var _ io.WriterTo = (*View)(nil)

// Close releases every lease the view holds and recycles it. Safe to
// call once per view; the view and its parts are invalid afterwards.
func (v *View) Close() {
	if !v.open {
		return
	}
	v.open = false
	for i := range v.leases {
		v.leases[i].Release()
	}
	v.leases = v.leases[:0]
	for i := range v.parts {
		v.parts[i] = nil
	}
	v.parts = v.parts[:0]
	// A ticket abandoned by an early error may still answer its reply
	// channel, so the channels are dropped rather than reused.
	clear(v.replies)
	v.replies = v.replies[:0]
	v.runs = v.runs[:0]
	v.length = 0
	v.decodedBytes = 0
	v.stats = RangeStats{}
	viewPool.Put(v)
}

// missRun is one contiguous run of blocks absent from the cache.
type missRun struct{ first, last int }

// RangeView serves blocks [first,last] as a zero-copy View: cached
// blocks are leased (Peek semantics — no LRU promotion, no demand
// accounting), each contiguous miss run is one worker-pool dispatch
// that decodes, verifies and caches its blocks. A range read triggers
// no speculative prefetch: the range already states what is wanted.
// The caller must Close the view.
func (s *Server) RangeView(name string, first, last int) (*View, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if first < 0 || last >= img.blocks || first > last {
		return nil, fmt.Errorf("%w: [%d,%d] of %q [0,%d)", ErrOutOfRange, first, last, name, img.blocks)
	}
	img.rangeReads.Add(1)
	s.met.rangeReads.Inc()
	start := time.Now()
	if img.recorder != nil {
		for b := first; b <= last; b++ {
			img.recorder.Record(b)
		}
	}
	v := newView()
	if err := s.viewBlocks(nil, img, v, first, last, 0); err != nil {
		v.Close()
		return nil, err
	}
	for _, p := range v.parts {
		v.length += len(p)
	}
	s.met.rangeRead.Observe(time.Since(start))
	return v, nil
}

// ReadAt serves n decompressed bytes at absolute byte offset off; see
// ReadAtContext.
func (s *Server) ReadAt(name string, off, n int) (*View, error) {
	return s.ReadAtContext(context.Background(), name, off, n)
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
// verified path and lands in the cache. The caller must Close the
// view.
func (s *Server) ReadAtContext(ctx context.Context, name string, off, n int) (*View, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	offs, err := img.blockOffsets()
	if err != nil {
		return nil, err
	}
	total := int(offs[len(offs)-1])
	// n > total-off, not off+n > total: the sum wraps for a huge n.
	if off < 0 || n < 0 || n > total-off {
		return nil, fmt.Errorf("%w: %d bytes at offset %d of %q [0,%d)", ErrOutOfRange, n, off, name, total)
	}
	img.subblockReads.Add(1)
	s.met.subblockReads.Inc()
	v := newView()
	if n == 0 {
		return v, nil
	}
	start := time.Now()
	end := off + n
	first := blockFor(offs, off)
	last := blockFor(offs, end-1)
	if img.recorder != nil {
		for b := first; b <= last; b++ {
			img.recorder.Record(b)
		}
	}
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
	return s.awaitView(ctx, v)
}

// dispatchView is the first half of viewBlocks: it leases the cached
// blocks of [first,last] into v.parts, runs the overload admission gates
// over the miss runs — between miss discovery and enqueue, so a fully
// cached read is never shed — and enqueues one pool ticket per run
// without waiting for any. merge makes that a single ticket spanning the
// first miss to the last, whose worker re-peeks the cached blocks in
// between, so a read fragmented by a partly warm cache still takes one
// queue slot. awaitView collects the tickets; in between, the caller is
// free to write out an earlier view while these decode.
func (s *Server) dispatchView(ctx context.Context, img *image, v *View, first, last, limit int, merge bool) error {
	st := &v.stats
	st.Blocks = last - first + 1
	v.first = first
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
			runs = append(runs, missRun{b, b})
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
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if merge {
		runs = append(runs[:0], missRun{runs[0].first, runs[len(runs)-1].last})
		v.runs = runs
	}
	for _, r := range runs {
		reply := make(chan rangeResult, 1)
		rj := &rangeJob{first: r.first, last: r.last, merged: merge, reply: reply}
		if limit > 0 && r.last == last {
			rj.limit = limit
		}
		if err := s.enqueue(ctx, task{img: img, enq: time.Now(), rng: rj, ctx: ctx}); err != nil {
			return err
		}
		v.replies = append(v.replies, reply)
		st.Dispatches++
		s.met.rangeDispatches.Inc()
	}
	return nil
}

// awaitView is the second half of viewBlocks: it waits for every ticket
// dispatchView enqueued and drops the decoded blocks into their parts.
func (s *Server) awaitView(ctx context.Context, v *View) error {
	st := &v.stats
	for i, reply := range v.replies {
		rr, err := awaitRange(ctx, reply, s.drained)
		if err != nil {
			return err
		}
		st.DecodedBlocks += rr.decoded
		v.decodedBytes += rr.decodedBytes
		copy(v.parts[v.runs[i].first-v.first:], rr.blocks)
	}
	s.met.rangeCachedBlocks.Add(int64(st.CachedBlocks))
	s.met.rangeDecodedBlocks.Add(int64(st.DecodedBlocks))
	return nil
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
			img.panicsRecovered.Add(1)
			s.met.codecPanics.Inc()
			data, decoded, err = nil, 0, fmt.Errorf("%w: block %d of %q: %v", ErrCodecPanic, block, img.name, r)
		}
	}()
	if err := w.guard(ctx, block, start); err != nil {
		return nil, 0, err
	}
	out, n, err := codecomp.AppendBlockPrefix(img.codec, make([]byte, 0, limit), block, limit)
	d := time.Since(start)
	if !w.settle() {
		return nil, 0, errOutlived
	}
	if err != nil {
		return nil, 0, err
	}
	s.met.decode.Observe(d)
	img.decompressions.Add(1)
	s.met.decompressions.Inc()
	img.decompressNanos.Add(int64(d))
	img.decompressedBytes.Add(int64(n))
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
// window is one range ticket, so an image takes ceil(blocks/textWindow)
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
// blocks, one verified-and-cached pool ticket spanning the window's
// misses, overload admission per window), and up to Options.Workers
// windows are in flight while the oldest is awaited and written, so
// later windows decode on other workers meanwhile. An expired ctx stops
// further dispatches; windows still in flight when the call returns
// early are abandoned, and their tickets still queued are retired
// undecoded. Returns how many bytes were written before any error.
func (s *Server) WriteTextContext(ctx context.Context, name string, w io.Writer) (int64, error) {
	img, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	img.fullReads.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	depth := s.opts.Workers
	ahead := make([]*View, 0, depth)
	defer func() {
		for _, v := range ahead {
			v.Close()
		}
	}()
	var n int64
	for next := 0; next < img.blocks || len(ahead) > 0; {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		for next < img.blocks && len(ahead) < depth {
			last := min(next+textWindow, img.blocks) - 1
			if img.recorder != nil {
				for b := next; b <= last; b++ {
					img.recorder.Record(b)
				}
			}
			v := newView()
			ahead = append(ahead, v)
			if err := s.dispatchView(ctx, img, v, next, last, 0, true); err != nil {
				return n, err
			}
			next = last + 1
		}
		v := ahead[0]
		if err := s.awaitView(ctx, v); err != nil {
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
