package samc

import (
	"fmt"
	"sync"
)

// DecompressParallel reconstructs the whole program using the given number
// of worker goroutines. Blocks decompress independently — the same property
// that lets the cache refill engine start anywhere — so the work is
// embarrassingly parallel; a flash-programming or verification tool wants
// this, even though the embedded decompressor itself works a block at a
// time. Each worker decodes a contiguous run of blocks with AppendBlock
// straight into its slots of the output, so the pass allocates nothing
// per block.
func (c *Compressed) DecompressParallel(workers int) ([]byte, error) {
	n := len(c.Blocks)
	workers = max(1, min(workers, n))
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
				off := i * c.BlockSize
				end := off + c.blockOrigLen(i)
				// The three-index slice caps the append at the block's
				// slot, so a block can never spill into its neighbour.
				if _, err := c.AppendBlock(out[off:off:end], i); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("samc: block %d: %w", i, err) })
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
