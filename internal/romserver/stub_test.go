package romserver

import (
	"context"
	"errors"
	"hash/crc32"
	"sync/atomic"
	"testing"
)

// stubBlock is block i as every stub image declares it.
func stubBlock(i int) []byte { return []byte{byte(i), byte(i >> 8)} }

// stubCodec is the tests' one BlockCodec. Every block is declared as
// stubBlock(i), and addCodec builds the image's sidecar from that
// declaration. A decode counts itself in calls, then runs decode when
// set: it may gate, delay, fail, panic or return other bytes, and the
// server must contain whatever it does. A nil decode waits on gate, if
// set, and returns the declared bytes.
type stubCodec struct {
	blocks int
	gate   chan struct{}
	decode func(i int) ([]byte, error)
	calls  atomic.Int64
}

func (c *stubCodec) NumBlocks() int { return c.blocks }
func (c *stubCodec) AppendBlock(dst []byte, i int) ([]byte, error) {
	c.calls.Add(1)
	if c.decode == nil {
		if c.gate != nil {
			<-c.gate
		}
		return append(dst, stubBlock(i)...), nil
	}
	b, err := c.decode(i)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}
func (c *stubCodec) Block(i int) ([]byte, error) { return c.AppendBlock(nil, i) }
func (c *stubCodec) Decompress() ([]byte, error) {
	var out []byte
	for i := 0; i < c.blocks; i++ {
		var err error
		if out, err = c.AppendBlock(out, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}
func (c *stubCodec) CompressedSize() int { return c.blocks }
func (c *stubCodec) Ratio() float64      { return 0.5 }

// addCodec registers a stub codec directly. Its sidecar comes from the
// declared blocks, not from decoding, so a stub that gates, wedges,
// panics or fails still does so in a worker, and its call count sees
// only the server's decodes.
func (s *Server) addCodec(name string, c *stubCodec) *image {
	sc := &sidecar{crcs: make([]uint32, c.blocks), lens: make([]int32, c.blocks)}
	for i := range c.blocks {
		b := stubBlock(i)
		sc.crcs[i] = crc32.Checksum(b, castagnoli)
		sc.lens[i] = int32(len(b))
	}
	img := s.newImage(name, c, "stub", sc)
	s.mu.Lock()
	s.images[name] = img
	s.mu.Unlock()
	return img
}

// TestStubServingOtherBytesIsCorrupt: a stub whose decode returns bytes
// other than the ones it declared is caught by the sidecar on the
// demand, range and text paths, and nothing it returned is cached.
func TestStubServingOtherBytesIsCorrupt(t *testing.T) {
	reads := map[string]func(s *Server) error{
		"demand": func(s *Server) error { _, _, err := s.BlockContext(context.Background(), "liar", 1); return err },
		"range": func(s *Server) error {
			v, err := s.RangeView(context.Background(), "liar", 0, 3)
			if err == nil {
				v.Close()
			}
			return err
		},
		"text": func(s *Server) error { _, err := fullText(s, "liar"); return err },
	}
	for name, read := range reads {
		liar := &stubCodec{blocks: 4, decode: func(i int) ([]byte, error) {
			b := stubBlock(i)
			b[0] ^= 0x80
			return b, nil
		}}
		s := New(Options{PrefetchDepth: -1, LoadAttempts: 1, ReverifyInterval: -1})
		img := s.addCodec("liar", liar)
		if err := read(s); !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: err = %v, want ErrCorruptBlock", name, err)
		}
		for b := 0; b < 4; b++ {
			if _, ok := s.cache.Peek(img.key(b)); ok {
				t.Errorf("%s: corrupt block %d cached", name, b)
			}
		}
		if n := metric(t, s, "romserver_corrupt_blocks_total"); n == 0 {
			t.Errorf("%s: no corrupt block counted", name)
		}
		s.Close()
	}
}
