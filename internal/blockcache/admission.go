package blockcache

import "sync/atomic"

// Admission is the reuse rule for blocks that bulk reads (range,
// sub-block and /text reads) decode into a full cache: such a block
// enters only if it was turned away before, and at most one cache
// capacity of other blocks were turned away since. It is 2Q's ghost
// list sized to one cache capacity, kept as one counter here and one
// stamp per block that the caller owns: the stamp is 0 for a block
// never turned away, and Skip returns the stamp a block gets when it
// is. The rule has no lock and no clock; a single-goroutine sequence of
// calls is deterministic, so an offline model that drives the same
// calls makes the same choices the serving stack does.
//
// Admission decides nothing about a cache with room: the caller inserts
// there without eviction (Cache.PutIfRoom) and asks Admit only for a
// block that would displace another.
type Admission struct {
	// horizon is how many other turned-away blocks a block's re-read may
	// come after and still be admitted: the cache capacity.
	horizon uint32
	// skips counts turned-away blocks modulo 2^32, passing over 0 so
	// that no stamp is 0.
	skips atomic.Uint32
}

// NewAdmission returns the rule for a cache of capacity blocks.
func NewAdmission(capacity int) *Admission {
	return &Admission{horizon: uint32(capacity)}
}

// Admit reports whether a block whose stamp is stamp may enter a full
// cache: it was turned away before, and at most capacity other blocks
// were turned away since.
func (a *Admission) Admit(stamp uint32) bool {
	if stamp == 0 {
		return false
	}
	n := a.skips.Load()
	since := n - stamp
	if n < stamp {
		// The count wrapped after the stamp and passed over 0, which no
		// skip holds.
		since--
	}
	return since <= a.horizon
}

// Skip records that a block was turned away and returns its new stamp,
// which is the number of blocks turned away so far, this one included,
// modulo 2^32 (the skip count plus 1). A stamp older than 2^32 skips
// aliases a recent one; at one skip per decoded block that is hours of
// bulk reads, and the cost of aliasing is one admission.
func (a *Admission) Skip() uint32 {
	stamp := a.skips.Add(1)
	if stamp == 0 {
		stamp = a.skips.Add(1)
	}
	return stamp
}
