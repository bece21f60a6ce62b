// faultlab: the fault-tolerance layer of the serving stack. The whole
// premise of executing out of compressed ROM is that one flipped bit in
// the stored image silently corrupts every byte the decoder emits after
// it — and a serving cache would then fan the corruption out to every
// client. This file makes the decompression path a managed, failure-aware
// runtime service instead of a trusted library call:
//
//   - an integrity sidecar (per-block CRC32-C + length, computed once at
//     registration) verifies every decompressed block BEFORE it can enter
//     the block cache — corruption is detected, counted and surfaced as
//     ErrCorruptBlock, never served or cached;
//   - the hardened load path recovers codec panics into errors, bounds
//     each decompression attempt with its pool worker's watchdog
//     (watchdog.go), and retries transient failures (and integrity
//     failures, which a re-decompression often clears) with bounded,
//     jittered exponential backoff;
//   - a per-image health state machine (healthy → degraded → quarantined)
//     driven by a sliding window of load outcomes plus a bad-block list,
//     with a periodic background re-verify pass that walks bad blocks and
//     brings recovered images back to healthy;
//   - SetFaults wraps an image's codec in internal/faultinj at runtime,
//     so chaos tests (loadgen -chaos) exercise all of the above end to
//     end against a live daemon.
package romserver

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
)

// Health state thresholds: an image degrades when its sliding-window
// failure rate crosses degradedRate (or any block is on the bad list) and
// quarantines at quarantineRate; escalation needs at least minHealthObs
// observations so one early blip cannot quarantine a fresh image.
const (
	degradedRate   = 0.10
	quarantineRate = 0.50
	minHealthObs   = 16
	// reverifyBatch bounds how many blocks one background re-verify pass
	// checks per unhealthy image.
	reverifyBatch = 8
)

// castagnoli is the sidecar CRC table (Castagnoli rather than IEEE so a
// sidecar checksum is never confused with the marshaled image checksum,
// and because it is hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HealthState is one image's position in the health state machine.
type HealthState int32

const (
	// Healthy: serving normally.
	Healthy HealthState = iota
	// Degraded: error/corruption rate over the window crossed
	// degradedRate, or blocks are on the bad list; still serving, under
	// observation and background re-verification.
	Degraded
	// Quarantined: failure rate crossed quarantineRate. Cached blocks are
	// still served (they were verified on the way in) but new
	// decompressions are refused with ErrQuarantined until background
	// re-verification walks the image back to health.
	Quarantined
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// sidecar is an image's integrity ground truth: one CRC32-C and expected
// length per decompressed block, computed from the freshly unmarshaled
// codec at registration. Immutable after construction.
type sidecar struct {
	crcs []uint32
	lens []int32
}

// sidecarChunkMin is the fewest blocks one registration chunk verifies,
// so an image under twice this many stays on the caller's goroutine.
const sidecarChunkMin = 64

// buildSidecar decompresses every block once and records its checksum and
// length. A codec that errors or panics here is rejected at registration
// rather than discovered in a worker. Blocks decode independently (the
// coder state resets at every block), so the pass splits the image into
// up to GOMAXPROCS contiguous chunks verified in parallel. Each chunk
// stops at its first failure and the first failing chunk's error is
// returned, so the error names the lowest failing block, as a
// sequential pass would. The caller's goroutine verifies the first
// chunk.
func buildSidecar(c codecomp.BlockCodec) (*sidecar, error) {
	n := c.NumBlocks()
	sc := &sidecar{crcs: make([]uint32, n), lens: make([]int32, n)}
	chunks := max(1, min(runtime.GOMAXPROCS(0), n/sidecarChunkMin))
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for p := 1; p < chunks; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = sc.fill(c, p*n/chunks, (p+1)*n/chunks)
		}()
	}
	errs[0] = sc.fill(c, 0, n/chunks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// fill decodes blocks [lo,hi) two at a time through
// codecomp.AppendBlockPair, into two reused buffers, and records each
// one's checksum and length. A pair that fails is decoded again one
// block at a time, so the error names the failing block. It recovers a
// codec panic into an error itself: it may run on its own goroutine,
// where no caller could.
func (sc *sidecar) fill(c codecomp.BlockCodec, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("codec panicked during verification: %v", r)
		}
	}()
	var a, b []byte
	for i := lo; i < hi; i++ {
		if i+1 < hi {
			if a, b, err = codecomp.AppendBlockPair(c, a[:0], b[:0], i); err == nil {
				sc.record(i, a)
				sc.record(i+1, b)
				i++
				continue
			}
		}
		if a, err = c.AppendBlock(a[:0], i); err != nil {
			return fmt.Errorf("block %d failed to decompress: %w", i, err)
		}
		sc.record(i, a)
	}
	return nil
}

// record notes block i's decoded checksum and length.
func (sc *sidecar) record(i int, data []byte) {
	sc.crcs[i] = crc32.Checksum(data, castagnoli)
	sc.lens[i] = int32(len(data))
}

// blockOffsets folds the sidecar's per-block lengths into the
// cumulative offset table ReadAtContext maps byte offsets through — the
// registration pass already decoded every block, so the table is free.
func (sc *sidecar) blockOffsets() []int64 {
	offs := make([]int64, len(sc.lens)+1)
	for i, n := range sc.lens {
		offs[i+1] = offs[i] + int64(n)
	}
	return offs
}

// verify checks one decompressed block against the sidecar.
func (sc *sidecar) verify(block int, data []byte) error {
	if len(data) != int(sc.lens[block]) {
		return fmt.Errorf("%w: block %d decompressed to %d bytes, registered as %d",
			ErrCorruptBlock, block, len(data), sc.lens[block])
	}
	if got := crc32.Checksum(data, castagnoli); got != sc.crcs[block] {
		return fmt.Errorf("%w: block %d checksum %08x, registered as %08x",
			ErrCorruptBlock, block, got, sc.crcs[block])
	}
	return nil
}

// imageHealth is one image's sliding window of load outcomes, bad-block
// list and current state. The state and the clean flag are written only
// under mu but are atomic, so State() — which the range path asks for
// every block — and a success on a clean window are one load each; every
// other field is guarded by mu.
type imageHealth struct {
	mu sync.Mutex
	// window is a ring of final load outcomes (true = failed).
	window []bool
	idx    int
	filled int
	fails  int
	state  atomic.Int32 // a HealthState
	// bad holds blocks whose most recent load failed after all retries;
	// membership alone keeps the image at least Degraded until a
	// successful load or re-verify clears it.
	bad map[int]struct{}
	// clean is set while the window is full, holds no failure and no
	// block is bad. A success pushed then changes nothing observable:
	// it overwrites a success in a ring of successes, the bad list stays
	// empty and the state stays Healthy.
	clean atomic.Bool
}

// healthWindow is the per-image sliding window of load outcomes that
// drives the health state machine.
const healthWindow = 64

func newImageHealth(window int) *imageHealth {
	return &imageHealth{window: make([]bool, window), bad: make(map[int]struct{})}
}

// State returns the current health state without taking the lock.
func (h *imageHealth) State() HealthState { return HealthState(h.state.Load()) }

// snapshot returns state, bad-block count and window failure rate in one
// lock acquisition.
func (h *imageHealth) snapshot() (HealthState, int, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rate := 0.0
	if h.filled > 0 {
		rate = float64(h.fails) / float64(h.filled)
	}
	return h.State(), len(h.bad), rate
}

// record pushes one final load outcome (after all retries) into the
// window, updates the bad-block list and recomputes the state. It returns
// the (from, to) pair when the state changed.
func (h *imageHealth) record(block int, failed bool) (from, to HealthState, changed bool) {
	if !failed && h.clean.Load() {
		return Healthy, Healthy, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.filled == len(h.window) {
		if h.window[h.idx] {
			h.fails--
		}
	} else {
		h.filled++
	}
	h.window[h.idx] = failed
	if failed {
		h.fails++
		h.bad[block] = struct{}{}
	} else {
		delete(h.bad, block)
	}
	h.idx = (h.idx + 1) % len(h.window)
	h.clean.Store(h.filled == len(h.window) && h.fails == 0 && len(h.bad) == 0)
	return h.recompute()
}

// recompute applies the thresholds. Caller holds mu.
func (h *imageHealth) recompute() (from, to HealthState, changed bool) {
	rate := 0.0
	if h.filled > 0 {
		rate = float64(h.fails) / float64(h.filled)
	}
	next := Healthy
	switch {
	case h.filled >= minHealthObs && rate >= quarantineRate:
		next = Quarantined
	case (h.filled >= minHealthObs && rate >= degradedRate) || len(h.bad) > 0:
		next = Degraded
	}
	from = h.State()
	if next == from {
		return from, next, false
	}
	h.state.Store(int32(next))
	return from, next, true
}

// reverifyTargets picks up to n blocks for a background re-verify pass:
// every bad block first, then a spread of ordinary blocks so repeated
// passes push fresh outcomes into the window and walk a recovered image's
// failure rate back under the thresholds.
func (h *imageHealth) reverifyTargets(n, blocks int) []int {
	h.mu.Lock()
	targets := make([]int, 0, n)
	for b := range h.bad {
		if len(targets) == n {
			break
		}
		targets = append(targets, b)
	}
	h.mu.Unlock()
	for i := 0; len(targets) < n && i < n && blocks > 0; i++ {
		targets = append(targets, (i*blocks)/n)
	}
	return targets
}

// retryBackoff is the base delay before a load's first retry; it
// doubles per attempt, with full jitter.
const retryBackoff = 2 * time.Millisecond

// retryable reports whether a load error is worth another attempt:
// anything that self-describes as temporary (net.Error-style Temporary(),
// which faultinj's transient errors implement). Codec panics and plain
// errors are permanent — a deterministic decoder will fail the same way
// again — and so is a decode that outlived its watchdog: it would
// overrun again.
func retryable(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// activeCodec returns the fault injector when one is installed, else the
// real codec.
func (img *image) activeCodec() codecomp.BlockCodec {
	if f := img.faults.Load(); f != nil {
		return f
	}
	return img.codec
}

// safeBlock is one raw decompression with panic containment: a panicking
// codec becomes an ErrCodecPanic error instead of killing a pool worker.
// It decodes through the codec's AppendBlock straight into a buffer sized
// from the sidecar's length, so a clean miss costs that one allocation,
// which the cache then keeps. It reads no clock: loadVerified times the
// attempt around it. The decompression counters go to the worker's
// accumulator.
func (w *poolWorker) safeBlock(img *image, block int) (data []byte, err error) {
	s := w.s
	defer func() {
		if r := recover(); r != nil {
			s.met.codecPanics.Inc()
			err = fmt.Errorf("%w: block %d of %q: %v", ErrCodecPanic, block, img.name, r)
		}
	}()
	w.acct.decompressions++
	data, err = img.activeCodec().AppendBlock(make([]byte, 0, img.sidecar.lens[block]), block)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// loadVerified is the hardened load path every decompression goes
// through (demand, prefetch, bulk run and re-verify alike): bounded
// attempts with jittered exponential backoff, integrity verification
// against the sidecar before the bytes can reach the cache, and health
// accounting of the final outcome. Each phase is observed into the
// worker's accumulator (loadAcct), which publishes it to its latency
// histogram when the ticket ends, and a sampled demand load carries sp
// (nil otherwise) to record the same phases plus retry/corruption
// events into the trace.
//
// ctx, when non-nil, is the ticket's request context, which bind
// resolved when the ticket started: its deadline clamps each attempt's
// decode deadline, an expired context stops the attempt loop, and —
// when the overload layer is on — each retry must additionally be
// granted by the token budget, so a fault burst cannot amplify into a
// retry storm. Background callers
// (re-verify, prefetch) pass nil and keep the old unbudgeted behavior.
//
// It runs on pool worker w: each decode attempt runs as a guarded
// section under its watchdog. Once the watchdog has answered the
// ticket, the load stops with w.retired and does no further
// verification or accounting.
//
// The stages share clock readings, so a clean load reads the clock
// twice: start is the caller's reading (the ticket's, or in a longer run
// the one that ended the previous block), and the first decode attempt
// starts at it; the reading taken when the decode returns ends the
// decode and starts the verify; the one taken when the verify returns
// ends the verify and the load, and is returned so a run can start its
// next block at it. The phase histograms, the decode
// ns/block gauge and the watchdog all use those readings. A retry reads
// the clock again after its backoff.
func (w *poolWorker) loadVerified(ctx context.Context, img *image, block int, sp *obsv.Span, start time.Time) ([]byte, time.Time, error) {
	s := w.s
	// now is always the latest clock reading.
	now := start
	defer func() { w.acct.blockLoad.Observe(now.Sub(start)) }()
	var lastErr error
	backoff := retryBackoff
	for attempt := 0; attempt < s.opts.LoadAttempts; attempt++ {
		if attempt > 0 {
			// A caller that already gave up gets its context error, not a
			// retried load it will never read.
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, now, err
				}
			}
			// Demand retries spend the token budget; a drained budget
			// fails the load with the last error instead of amplifying.
			if ctx != nil && !s.retryAllowed() {
				if sp != nil {
					sp.Eventf("retry %d denied by budget: %v", attempt, lastErr)
				}
				break
			}
			s.met.retries.Inc()
			// Full jitter on an exponential base, capped at quit.
			d := backoff + time.Duration(rand.Int63n(int64(backoff)+1))
			if sp != nil {
				sp.Eventf("retry %d after %v: %v", attempt, d, lastErr)
			}
			select {
			case <-time.After(d):
			case <-doneOf(ctx):
				now = time.Now()
				return nil, now, ctx.Err()
			case <-s.quit:
				now = time.Now()
				return nil, now, ErrClosed
			}
			backoff *= 2
			now = time.Now()
		}
		decodeStart := now
		if err := w.guard(ctx, block, decodeStart); err != nil {
			return nil, now, err
		}
		data, err := w.safeBlock(img, block)
		outlived := w.settle()
		decodeEnd := time.Now()
		now = decodeEnd
		if outlived != nil {
			return nil, now, outlived
		}
		// Verify before any accounting, so the decode's bookkeeping
		// lands in neither phase.
		var verr error
		if err == nil {
			verr = img.sidecar.verify(block, data)
			now = time.Now()
		}
		decodeDur := decodeEnd.Sub(decodeStart)
		w.acct.decode.Observe(decodeDur)
		sp.Phase("decode", decodeDur)
		if err == nil {
			verifyDur := now.Sub(decodeEnd)
			w.acct.verify.Observe(verifyDur)
			sp.Phase("verify", verifyDur)
			if verr != nil {
				// Detected corruption: count it, never serve or cache it.
				// Retry — decompression is deterministic but the fault
				// (RAM bit rot, injected flip) often is not.
				s.met.corruptBlocks.Inc()
				if sp != nil {
					sp.Eventf("corruption detected: %v", verr)
				}
				lastErr = verr
				continue
			}
			s.recordHealth(img, block, false)
			return data, now, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	s.met.loadFailures.Inc()
	s.recordHealth(img, block, true)
	return nil, now, lastErr
}

// loadPair loads blocks b and b+1 of a bulk run through the codec's
// two-lane kernel (codecomp.BlockPairAppender). One guarded section
// covers both decodes, and the clock is read once when the decode ends
// and once when verification ends. Each block gets its own
// sidecar-sized buffer, so the cache never holds two blocks in one
// backing array, its own sidecar check and its own health record, and
// is observed in the decode, verify and block-load histograms at half
// the pair's time, so each keeps one sample per block. The pair starts
// at *now and leaves its last reading there.
//
// ok is false when the pair loaded nothing: the codec has no two-lane
// kernel (a fault injector included, so its faults meet exactly the
// calls the single path makes), or the decode failed, panicked,
// outlived the watchdog or failed verification. The caller then loads
// both blocks through loadVerified, which retries, counts corruption
// and records health as for any single block, and meets any guard or
// watchdog error again at its own guard. A failed pair records nothing
// but its decompressions and a recovered panic.
func (w *poolWorker) loadPair(ctx context.Context, img *image, b int, now *time.Time) (da, db []byte, ok bool) {
	pc, ok := img.activeCodec().(codecomp.BlockPairAppender)
	if !ok {
		return nil, nil, false
	}
	s, start := w.s, *now
	if w.guard(ctx, b, start) != nil {
		return nil, nil, false
	}
	da, db, err := w.safePair(img, pc, b)
	outlived := w.settle()
	decodeEnd := time.Now()
	*now = decodeEnd
	if outlived != nil || err != nil {
		return nil, nil, false
	}
	verr := img.sidecar.verify(b, da)
	if verr == nil {
		verr = img.sidecar.verify(b+1, db)
	}
	*now = time.Now()
	if verr != nil {
		return nil, nil, false
	}
	decode, verify := decodeEnd.Sub(start)/2, now.Sub(decodeEnd)/2
	for range 2 {
		w.acct.decode.Observe(decode)
		w.acct.verify.Observe(verify)
		w.acct.blockLoad.Observe(decode + verify)
	}
	s.recordHealth(img, b, false)
	s.recordHealth(img, b+1, false)
	return da, db, true
}

// safePair is safeBlock for a pair: one call of the codec's two-lane
// kernel, each block decoding into its own buffer sized from the
// sidecar, with a panic recovered into ErrCodecPanic.
func (w *poolWorker) safePair(img *image, pc codecomp.BlockPairAppender, b int) (da, db []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.s.met.codecPanics.Inc()
			err = fmt.Errorf("%w: blocks %d-%d of %q: %v", ErrCodecPanic, b, b+1, img.name, r)
		}
	}()
	w.acct.decompressions += 2
	lens := img.sidecar.lens
	return pc.AppendBlockPair(make([]byte, 0, lens[b]), make([]byte, 0, lens[b+1]), b)
}

// recordHealth pushes a final load outcome into the image's health window
// and counts state transitions.
func (s *Server) recordHealth(img *image, block int, failed bool) {
	if _, _, changed := img.health.record(block, failed); changed {
		s.met.healthTransitions.Inc()
	}
}

// reverifier is the background recovery loop: every interval it walks
// each unhealthy image's bad blocks (plus a spread of ordinary blocks)
// through the hardened load path. Successes clear bad-list entries and
// dilute the failure window, so an image whose faults have stopped steps
// back down to healthy; persistent failures keep it where it is.
func (s *Server) reverifier(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.reverifyPass()
		case <-s.quit:
			return
		}
	}
}

// reverifyPass re-verifies every unhealthy image once, one pool ticket
// per block so each re-verify decode runs under a worker's watchdog.
func (s *Server) reverifyPass() {
	s.mu.RLock()
	imgs := make([]*image, 0, len(s.images))
	for _, img := range s.images {
		imgs = append(imgs, img)
	}
	s.mu.RUnlock()
	for _, img := range imgs {
		if img.health.State() == Healthy {
			continue
		}
		for _, b := range img.health.reverifyTargets(reverifyBatch, img.blocks) {
			if b < 0 || b >= img.blocks {
				continue
			}
			s.met.reverifies.Inc()
			// The outcome lands in health accounting. Shutdown abandons
			// the wait (a draining worker may still answer the reply),
			// so Close never waits on a sick image.
			r := replyPool.Get().(*runReply)
			select {
			case s.tasks <- task{img: img, block: b, reverify: true, reply: r}:
			case <-s.quit:
				return
			}
			select {
			case <-r.done:
				r.recycle()
			case <-s.quit:
				return
			}
		}
	}
}

// SetFaults installs a fault injector between the serving stack and the
// image's codec (chaos testing: see cmd/loadgen -chaos). A nil spec
// removes the injector. The integrity sidecar was computed from the clean
// codec at registration and is deliberately left untouched, so injected
// corruption is detected exactly like real corruption would be.
func (s *Server) SetFaults(name string, opts *faultinj.Options) error {
	img, err := s.lookup(name)
	if err != nil {
		return err
	}
	if opts == nil {
		img.faults.Store(nil)
		return nil
	}
	// Mirror injected faults into the metrics registry, chaining any hook
	// the caller supplied.
	o := *opts
	userHook := o.Hook
	o.Hook = func(k faultinj.Kind) {
		s.met.countFault(k)
		if userHook != nil {
			userHook(k)
		}
	}
	img.faults.Store(faultinj.New(img.codec, o))
	return nil
}

// HealthTracker is the image health state machine exposed for reuse by
// other subsystems that need the same sliding-window escalation —
// internal/cluster drives one per node to decide ring ejection, so a
// node and an image degrade and recover by exactly the same rules
// (healthy → degraded on sustained failures or any unresolved failure,
// quarantined at a 50% window failure rate, walked back by successes).
type HealthTracker struct {
	h *imageHealth
}

// NewHealthTracker returns a tracker over a sliding window of the given
// size, which must be positive.
func NewHealthTracker(size int) *HealthTracker {
	return &HealthTracker{h: newImageHealth(size)}
}

// Record pushes one outcome into the window and reports whether the
// state changed, and to what.
func (t *HealthTracker) Record(failed bool) (to HealthState, changed bool) {
	_, to, changed = t.h.record(0, failed)
	return to, changed
}

// State returns the current health state.
func (t *HealthTracker) State() HealthState { return t.h.State() }

// FailureRate returns the failing fraction of the observed window.
func (t *HealthTracker) FailureRate() float64 {
	_, _, rate := t.h.snapshot()
	return rate
}

// HealthInfo is one image's health for /healthz-style reporting.
type HealthInfo struct {
	Image string `json:"image"`
	// State is "healthy", "degraded" or "quarantined".
	State string `json:"state"`
	// BadBlocks is how many blocks are currently on the bad list.
	BadBlocks int `json:"bad_blocks"`
	// FailureRate is the failure fraction of the sliding outcome window.
	FailureRate float64 `json:"failure_rate"`
}

// Health reports readiness: ready is false while any image is
// quarantined. The per-image breakdown is sorted by name.
func (s *Server) Health() (ready bool, infos []HealthInfo) {
	s.mu.RLock()
	imgs := make([]*image, 0, len(s.images))
	for _, img := range s.images {
		imgs = append(imgs, img)
	}
	s.mu.RUnlock()
	ready = true
	for _, img := range imgs {
		state, bad, rate := img.health.snapshot()
		if state == Quarantined {
			ready = false
		}
		infos = append(infos, HealthInfo{
			Image:       img.name,
			State:       state.String(),
			BadBlocks:   bad,
			FailureRate: rate,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Image < infos[j].Image })
	return ready, infos
}
