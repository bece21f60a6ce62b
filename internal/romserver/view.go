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
	"codecomp/internal/overload"
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
// dispatches, decoded blocks), same semantics as RangeBatched.
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

// AppendTo appends the view's bytes to dst and returns it — the
// copying adapter the legacy contiguous APIs (RangeBatched) sit on.
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
// that decodes, verifies and caches its blocks. The caller must Close
// the view.
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
	if off < 0 || n < 0 || off+n > total {
		return nil, fmt.Errorf("%w: bytes [%d,%d) of %q [0,%d)", ErrOutOfRange, off, off+n, name, total)
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
// first limit bytes. The overload admission gates run between miss
// discovery and enqueue, so a fully cached read is never shed.
func (s *Server) viewBlocks(ctx context.Context, img *image, v *View, first, last, limit int) error {
	st := &v.stats
	st.Blocks = last - first + 1
	if cap(v.parts) >= st.Blocks {
		v.parts = v.parts[:st.Blocks]
	} else {
		v.parts = make([][]byte, st.Blocks)
	}
	var runs []missRun
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
	if len(runs) == 0 {
		s.met.rangeCachedBlocks.Add(int64(st.CachedBlocks))
		return nil
	}
	if s.ovl != nil {
		if err := s.admitRuns(ctx, img, runs); err != nil {
			return err
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	replies := make([]chan rangeResult, len(runs))
	for i, r := range runs {
		reply := make(chan rangeResult, 1)
		replies[i] = reply
		rj := &rangeJob{first: r.first, last: r.last, reply: reply}
		if limit > 0 && r.last == last {
			rj.limit = limit
		}
		if err := s.enqueue(ctx, task{img: img, enq: time.Now(), rng: rj, ctx: ctx}); err != nil {
			return err
		}
		st.Dispatches++
		s.met.rangeDispatches.Inc()
	}
	for i, r := range runs {
		rr, err := awaitRange(ctx, replies[i], s.drained)
		if err != nil {
			return err
		}
		st.DecodedBlocks += rr.decoded
		v.decodedBytes += rr.decodedBytes
		copy(v.parts[r.first-first:], rr.blocks)
	}
	s.met.rangeCachedBlocks.Add(int64(st.CachedBlocks))
	s.met.rangeDecodedBlocks.Add(int64(st.DecodedBlocks))
	return nil
}

// admitRuns is the overload gate for batched and sub-block reads, the
// counterpart of admit for demand fetches: while browned out, every
// miss block must be in the trained hot set or the read is shed; an
// estimated queue wait beyond the caller's deadline rejects up front;
// an admitted read funds the retry budget once.
func (s *Server) admitRuns(ctx context.Context, img *image, runs []missRun) error {
	o := s.ovl
	if o.ctl.Level() == overload.BrownedOut {
		for _, r := range runs {
			for b := r.first; b <= r.last; b++ {
				if !img.isHot(b) {
					s.met.brownoutShed.Inc()
					return &overload.RejectError{
						Reason:     overload.ReasonBrownout,
						RetryAfter: retryAfter(o.adm.EstimateWait(len(s.tasks))),
					}
				}
			}
		}
	}
	est := o.adm.EstimateWait(len(s.tasks) + len(runs))
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok && est > time.Until(dl) {
			s.met.admissionDeadline.Inc()
			return &overload.RejectError{Reason: overload.ReasonDeadline, RetryAfter: retryAfter(est)}
		}
	}
	o.bud.OnRequest()
	return nil
}

// decodePrefix decodes only the first limit bytes of one block — the
// tail block of a sub-block read. A prefix cannot be checked against a
// whole-block CRC, so this bypasses the integrity sidecar; callers
// gate it to healthy images without a fault injector, and the result
// is never cached. Panics are contained like the hardened path's, and
// the decode runs as a guarded section under the worker's watchdog.
func (w *poolWorker) decodePrefix(ctx context.Context, img *image, block, limit int) (data []byte, decoded int, err error) {
	s := w.s
	defer func() {
		if r := recover(); r != nil {
			img.panicsRecovered.Add(1)
			s.met.codecPanics.Inc()
			data, decoded, err = nil, 0, fmt.Errorf("%w: block %d of %q: %v", ErrCodecPanic, block, img.name, r)
		}
	}()
	start := time.Now()
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

// WriteText streams the whole decompressed program to w block by
// block, never materializing it — the /text endpoint's streaming
// backend. Returns how many bytes were written before any error.
func (s *Server) WriteText(name string, w io.Writer) (int64, error) {
	img, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	img.fullReads.Add(1)
	var n int64
	for b := 0; b < img.blocks; b++ {
		blk, _, err := s.fetch(img, b)
		if err != nil {
			return n, err
		}
		m, err := w.Write(blk)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
