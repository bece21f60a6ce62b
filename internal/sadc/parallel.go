package sadc

import (
	"fmt"
	"sync"
)

// DecompressParallel reconstructs the whole program using the given number
// of worker goroutines; every block decodes independently against the
// shared read-only dictionary and Huffman tables. Each worker decodes a
// contiguous run of blocks with AppendBlock straight into their slots of
// the output, so the pass allocates nothing per block.
func (c *Compressed) DecompressParallel(workers int) ([]byte, error) {
	n := len(c.Blocks)
	workers = max(1, min(workers, n))
	offsets := make([]int, n+1)
	for i := range c.Blocks {
		offsets[i+1] = offsets[i] + c.Blocks[i].Bytes
	}
	if offsets[n] != c.OrigSize {
		return nil, fmt.Errorf("sadc: block sizes sum to %d, image says %d", offsets[n], c.OrigSize)
	}
	out := make([]byte, c.OrigSize)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				// The three-index slice caps the append at the block's
				// slot: a block that decodes long reallocates instead of
				// spilling into its neighbour, and is caught by the
				// length check like a short one.
				slot := out[offsets[i]:offsets[i]:offsets[i+1]]
				blk, err := c.AppendBlock(slot, i)
				if err == nil && len(blk) != c.Blocks[i].Bytes {
					err = fmt.Errorf("decoded %d bytes, want %d", len(blk), c.Blocks[i].Bytes)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("sadc: block %d: %w", i, err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
