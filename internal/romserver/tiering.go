// Tiering: the background recompressor over mixed-codec (tiered) images.
// A tiered image stores every block in exactly one codec tier — raw or
// byte-Huffman for speed, rANS or SAMC for density (internal/tiering).
// This file closes the loop between the tracelab profiles and the tier
// map: a recompression pass compares each block's current tier against
// what the tiering policy derives from the image's trained heat profile
// and migrates mismatched blocks, one encode-verify-swap at a time:
//
//   - the block is re-encoded under the target tier's frozen model;
//   - the swapped-in payload is decoded back through the real read path
//     and checked byte-for-byte inside the migration lock, PLUS verified
//     against the image's integrity sidecar (CRC32-C + length) — a
//     migration that would change a single served byte rolls back and
//     counts as a verify failure, it can never land;
//   - the block's cache entry is invalidated, so the next read decodes
//     through the new tier. Both tiers decode to the same sidecar-verified
//     bytes, so an old-tier load that lands after the swap is harmless.
//
// Reads never block on recompression: migrations take the image's
// internal write lock for microseconds per block, and the serving path's
// own round trips (TestTieredMigrationUnderLoad) prove byte-exactness
// while a pass is storming.
package romserver

import (
	"errors"
	"fmt"
	"time"

	"codecomp"
)

// ErrNotTiered is returned by tiering APIs for images that are not
// mixed-codec tiered images.
var ErrNotTiered = errors.New("romserver: image is not tiered")

// TieringOptions configures the background recompressor.
type TieringOptions struct {
	// Interval is the background pass period (default 10s; negative
	// disables the background goroutine — Recompress still works
	// synchronously).
	Interval time.Duration
	// BatchBlocks caps how many blocks one pass migrates per image
	// (default 256), bounding the write-lock churn a single pass can
	// cause; the next pass continues where the plan still disagrees.
	BatchBlocks int
	// Persist, when set, is called after every pass that migrated at
	// least one block, with the image's freshly marshaled bytes — the
	// daemon points this at its data dir so a restart recovers the
	// migrated tier map instead of the upload-time one.
	Persist func(name string, image []byte) error
}

// withDefaults returns a filled copy of t. Nil runs no background pass,
// but a synchronous Recompress still batches and persists through it.
func (t *TieringOptions) withDefaults() *TieringOptions {
	d := TieringOptions{Interval: -1}
	if t != nil {
		d = *t
	}
	if d.Interval == 0 {
		d.Interval = 10 * time.Second
	}
	if d.BatchBlocks <= 0 {
		d.BatchBlocks = 256
	}
	return &d
}

// TieringInfo describes a tiered image's current tier map.
type TieringInfo struct {
	Image string `json:"image"`
	// Tiers is the per-tier population and footprint, fastest first.
	Tiers []codecomp.TierCount `json:"tiers"`
	// Assignments is the per-block tier index (same order as blocks).
	Assignments []uint8 `json:"assignments"`
	// Policy is the policy a recompression pass would apply (the image
	// override if one was set, else the zero policy).
	Policy codecomp.TierPolicy `json:"policy"`
	// CompressedSize and Ratio reflect the current tier map.
	CompressedSize int     `json:"compressed_size"`
	Ratio          float64 `json:"ratio"`
}

// TieringPassStats reports one recompression pass over one image.
type TieringPassStats struct {
	// Planned is how many blocks the policy wanted in a different tier.
	Planned int `json:"planned"`
	// Migrated is how many blocks actually swapped tiers.
	Migrated int `json:"migrated"`
	// VerifyFailures counts migrations rolled back because the re-encoded
	// block failed the round-trip or sidecar check.
	VerifyFailures int `json:"verify_failures"`
	// BytesDelta is the net compressed-size change (negative = smaller).
	BytesDelta int `json:"bytes_delta"`
	// Trained reports whether the image had a profile to plan from; an
	// untrained image yields an empty pass.
	Trained bool `json:"trained"`
}

// tieredImage resolves name to a registered tiered image.
func (s *Server) tieredImage(name string) (*image, error) {
	img, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if img.tiered == nil {
		return nil, fmt.Errorf("%w: %q is %s", ErrNotTiered, name, img.format)
	}
	return img, nil
}

// policyFor is the image's effective tier policy: its override, else the
// zero policy, which uses the tiering package defaults (hot 60% of
// accesses, warm next 25%, hot tier capped at a quarter of the blocks).
func (s *Server) policyFor(img *image) codecomp.TierPolicy {
	if p := img.tierPolicy.Load(); p != nil {
		return *p
	}
	return codecomp.TierPolicy{}
}

// Tiering reports a tiered image's tier map, footprint and effective
// policy. ErrNotTiered for single-codec images.
func (s *Server) Tiering(name string) (TieringInfo, error) {
	img, err := s.tieredImage(name)
	if err != nil {
		return TieringInfo{}, err
	}
	return TieringInfo{
		Image:          name,
		Tiers:          img.tiered.Stats(),
		Assignments:    img.tiered.Assignments(),
		Policy:         s.policyFor(img),
		CompressedSize: img.tiered.CompressedSize(),
		Ratio:          img.tiered.Ratio(),
	}, nil
}

// SetTierPolicy installs a per-image tier policy override, replacing the
// tiering package defaults for that image's future recompression passes.
// Roll back a bad policy by re-setting the previous one (or the zero
// value for the defaults) and running Recompress.
func (s *Server) SetTierPolicy(name string, p codecomp.TierPolicy) error {
	img, err := s.tieredImage(name)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPolicy, err)
	}
	img.tierPolicy.Store(&p)
	return nil
}

// Recompress runs one synchronous recompression pass over a tiered image:
// plan the desired tier map from the trained profile under the effective
// policy, then encode-verify-swap every mismatched block (up to the batch
// limit). An untrained image is a no-op pass, not an error — train first
// (Train/TrainFrom), then recompress.
func (s *Server) Recompress(name string) (TieringPassStats, error) {
	img, err := s.tieredImage(name)
	if err != nil {
		return TieringPassStats{}, err
	}
	return s.recompressImage(img), nil
}

// recompressImage plans and applies one pass. Serialized per image by
// tierMu so concurrent passes (background + API) cannot interleave their
// plan/migrate/persist sequences.
func (s *Server) recompressImage(img *image) TieringPassStats {
	img.tierMu.Lock()
	defer img.tierMu.Unlock()
	var st TieringPassStats
	defer func() {
		s.met.tieringPasses.Inc()
		s.updateTierGauges()
	}()
	prof := img.profile.Load()
	if prof == nil {
		return st
	}
	st.Trained = true
	t := img.tiered
	desired := s.policyFor(img).Assign(prof, len(t.Tiers()))
	batch := s.opts.Tiering.BatchBlocks
	for b := 0; b < len(desired) && b < img.blocks; b++ {
		cur, err := t.TierOf(b)
		if err != nil || cur == int(desired[b]) {
			continue
		}
		st.Planned++
		if st.Migrated >= batch {
			continue // keep counting the backlog; the next pass takes it
		}
		block := b
		delta, err := t.MigrateBlock(b, int(desired[b]), func(decoded []byte) error {
			return img.sidecar.verify(block, decoded)
		})
		if err != nil {
			st.VerifyFailures++
			s.met.tieringVerifyFailures.Inc()
			continue
		}
		// The swap landed: drop the block's cached copy so the next read
		// decodes through the new tier.
		s.cache.Invalidate(img.key(b))
		st.Migrated++
		st.BytesDelta += delta
		s.met.tieringMigrations.Inc()
		if delta < 0 {
			s.met.tieringBytesSaved.Add(int64(-delta))
		} else if delta > 0 {
			s.met.tieringBytesSpent.Add(int64(delta))
		}
	}
	if st.Migrated > 0 && s.opts.Tiering.Persist != nil {
		if err := s.opts.Tiering.Persist(img.name, t.Marshal()); err != nil {
			s.met.tieringPersistFailures.Inc()
		}
	}
	return st
}

// recompressor is the background migration loop: every interval it runs
// one pass over every trained tiered image.
func (s *Server) recompressor(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.recompressPass()
		case <-s.quit:
			return
		}
	}
}

// recompressPass runs one pass over every registered tiered image.
func (s *Server) recompressPass() {
	s.mu.RLock()
	imgs := make([]*image, 0, len(s.images))
	for _, img := range s.images {
		if img.tiered != nil {
			imgs = append(imgs, img)
		}
	}
	s.mu.RUnlock()
	for _, img := range imgs {
		select {
		case <-s.quit:
			return
		default:
		}
		s.recompressImage(img)
	}
}

// updateTierGauges recomputes the blocks-per-tier gauge family across all
// registered tiered images. Called after registration changes and every
// recompression pass; the gauges are event-driven snapshots, not
// read-at-scrape funcs, because the per-tier label set is dynamic.
func (s *Server) updateTierGauges() {
	totals := map[string]int{
		codecomp.TierRaw:     0,
		codecomp.TierHuffman: 0,
		codecomp.TierRANS:    0,
		codecomp.TierSAMC:    0,
	}
	s.mu.RLock()
	for _, img := range s.images {
		if img.tiered == nil {
			continue
		}
		for _, tc := range img.tiered.Stats() {
			totals[tc.Format] += tc.Blocks
		}
	}
	s.mu.RUnlock()
	for format, blocks := range totals {
		s.met.tieringBlocks.With(format).Set(int64(blocks))
	}
}
