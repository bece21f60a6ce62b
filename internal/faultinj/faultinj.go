// Package faultinj wraps any codecomp.BlockCodec in a deterministic,
// seeded fault injector: the adversary the faultlab hardening in
// internal/romserver is built against. A compressed ROM that is executed
// in place has no filesystem underneath it to detect bit rot, and a
// decompressor bug corrupts every instruction it emits after the bad
// state — so the serving stack must assume the codec can return flipped
// bits, fail transiently, fail permanently, wedge, or panic, and the
// injector produces exactly those behaviours on demand:
//
//   - BitFlipRate: with probability p per load, one bit of the
//     decompressed output is flipped (the stored-image rot model: the
//     decoder "succeeds" but the bytes are wrong).
//   - TransientRate: with probability p per load, the load fails with a
//     *TransientError (Temporary() == true), the retryable failure mode
//     (a refill engine losing arbitration, an allocation blip).
//   - ErrorBlocks: listed blocks always fail with a permanent error.
//   - PanicBlocks: listed blocks always panic (the buggy-codec model).
//   - Latency: every load sleeps first (the slow-decoder model, used to
//     exercise load deadlines).
//
// Faults are drawn from a splitmix64 stream keyed by (Seed, load
// sequence number), so a single-threaded caller replays the exact same
// fault sequence for the same seed, and concurrent callers see the same
// deterministic multiset of faults in arrival order. The wrapped codec
// is never mutated: bit flips are applied to the decoded output.
//
// Injectors are safe for concurrent use, like the codecs they wrap.
package faultinj

import (
	"fmt"
	"sync/atomic"
	"time"

	"codecomp"
)

// Options configures one injector. The zero value injects nothing: the
// wrapper is then a transparent pass-through (plus counters).
type Options struct {
	// Seed keys the deterministic fault stream.
	Seed int64 `json:"seed"`
	// BitFlipRate is the per-load probability of flipping one output bit.
	BitFlipRate float64 `json:"bit_flip_rate"`
	// TransientRate is the per-load probability of a retryable error.
	TransientRate float64 `json:"transient_rate"`
	// ErrorBlocks always fail with a permanent (non-retryable) error.
	ErrorBlocks []int `json:"error_blocks,omitempty"`
	// PanicBlocks always panic inside the block load.
	PanicBlocks []int `json:"panic_blocks,omitempty"`
	// Latency is added to every load before anything else happens.
	Latency time.Duration `json:"latency_ns"`
	// Hook, when set, is called once per injected fault with its kind,
	// from the goroutine the fault is injected on (for panics, before the
	// panic is raised). It is the only fault count: the serving layer
	// uses it to feed the faultinj_* families of its metrics registry.
	// Must be safe for concurrent use.
	Hook func(Kind) `json:"-"`
}

// Kind classifies one injected fault for Options.Hook.
type Kind int

// The four injectable fault kinds.
const (
	KindBitFlip Kind = iota
	KindTransient
	KindPermanent
	KindPanic
)

// String names the fault kind the way the metrics layer does.
func (k Kind) String() string {
	switch k {
	case KindBitFlip:
		return "bit_flip"
	case KindTransient:
		return "transient_error"
	case KindPermanent:
		return "permanent_error"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TransientError is the injected retryable failure; it satisfies the
// Temporary() convention the romserver retry policy keys on.
type TransientError struct {
	Block int
	Seq   int64
}

// Error describes the injected failure with its block and load sequence.
func (e *TransientError) Error() string {
	return fmt.Sprintf("faultinj: injected transient error on block %d (load %d)", e.Block, e.Seq)
}

// Temporary marks the error as retryable.
func (e *TransientError) Temporary() bool { return true }

// Injector is a fault-injecting BlockCodec wrapper; construct with New.
type Injector struct {
	inner       codecomp.BlockCodec
	opts        Options
	errorBlocks map[int]bool
	panicBlocks map[int]bool

	// seq numbers the loads; it keys each load's seeded draws.
	seq atomic.Int64
}

var _ codecomp.BlockCodec = (*Injector)(nil)

// New wraps inner with the configured faults.
func New(inner codecomp.BlockCodec, opts Options) *Injector {
	j := &Injector{
		inner:       inner,
		opts:        opts,
		errorBlocks: make(map[int]bool, len(opts.ErrorBlocks)),
		panicBlocks: make(map[int]bool, len(opts.PanicBlocks)),
	}
	for _, b := range opts.ErrorBlocks {
		j.errorBlocks[b] = true
	}
	for _, b := range opts.PanicBlocks {
		j.panicBlocks[b] = true
	}
	return j
}

// NumBlocks delegates to the wrapped codec.
func (j *Injector) NumBlocks() int { return j.inner.NumBlocks() }

// CompressedSize delegates to the wrapped codec.
func (j *Injector) CompressedSize() int { return j.inner.CompressedSize() }

// Ratio delegates to the wrapped codec.
func (j *Injector) Ratio() float64 { return j.inner.Ratio() }

// Decompress delegates to the wrapped codec unfaulted: whole-image reads
// are an admin/registration path, and faultlab targets the per-block
// serving path.
func (j *Injector) Decompress() ([]byte, error) { return j.inner.Decompress() }

// AppendBlock loads block i through the fault model into dst: latency
// first, then panic/permanent blocks, then the seeded transient/bit-flip
// draws. A bit flip lands in the appended bytes, never in dst's prefix.
func (j *Injector) AppendBlock(dst []byte, i int) ([]byte, error) {
	seq := j.seq.Add(1)
	if j.opts.Latency > 0 {
		time.Sleep(j.opts.Latency)
	}
	if j.panicBlocks[i] {
		j.hook(KindPanic)
		panic(fmt.Sprintf("faultinj: injected panic on block %d (load %d)", i, seq))
	}
	if j.errorBlocks[i] {
		j.hook(KindPermanent)
		return nil, fmt.Errorf("faultinj: injected permanent error on block %d", i)
	}
	// Two independent draws from the (Seed, seq) stream: transient gate,
	// then flip gate + flip position.
	r0 := splitmix(uint64(j.opts.Seed) ^ uint64(seq)*0x9e3779b97f4a7c15)
	if unit(r0) < j.opts.TransientRate {
		j.hook(KindTransient)
		return nil, &TransientError{Block: i, Seq: seq}
	}
	base := len(dst)
	out, err := j.inner.AppendBlock(dst, i)
	if err != nil {
		return nil, err
	}
	r1 := splitmix(r0)
	if n := len(out) - base; n > 0 && unit(r1) < j.opts.BitFlipRate {
		bit := int(splitmix(r1) % uint64(n*8))
		out[base+bit/8] ^= 1 << (bit % 8)
		j.hook(KindBitFlip)
	}
	return out, nil
}

// Block is AppendBlock into a fresh slice.
func (j *Injector) Block(i int) ([]byte, error) { return j.AppendBlock(nil, i) }

// hook invokes the configured fault hook, if any.
func (j *Injector) hook(k Kind) {
	if j.opts.Hook != nil {
		j.opts.Hook(k)
	}
}

// splitmix is the splitmix64 finalizer: one cheap, well-mixed draw per
// call, chainable by feeding the output back in.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a draw onto [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
