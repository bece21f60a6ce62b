package policy

import (
	"reflect"
	"testing"

	"codecomp/internal/traceprof"
)

func TestSequentialBounds(t *testing.T) {
	s := NewSequential(4, 10)
	if got := s.Predict(0); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("Predict(0) = %v", got)
	}
	if got := s.Predict(8); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("Predict(8) = %v", got)
	}
	if got := s.Predict(9); len(got) != 0 {
		t.Fatalf("Predict(9) = %v", got)
	}
	if got := s.Predict(-1); got != nil {
		t.Fatalf("Predict(-1) = %v", got)
	}
	if got := s.Predict(10); got != nil {
		t.Fatalf("Predict(out of range) = %v", got)
	}
	if got := NewSequential(-1, 10).Predict(0); len(got) != 0 {
		t.Fatalf("negative depth Predict = %v", got)
	}
}

// TestSequentialDepthClampedToBlocks: a depth far above the image's
// block count, as a policy PUT or a daemon flag can ask for, sizes no
// prediction beyond the image, on its own or as markov's fallback.
func TestSequentialDepthClampedToBlocks(t *testing.T) {
	const blocks, depth = 10, 1 << 20
	if got := NewSequential(depth, blocks).Predict(0); cap(got) > blocks || !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("Predict(0) = %v with capacity %d, want blocks 1..9 in at most %d", got, cap(got), blocks)
	}
	prof := traceprof.BuildProfile([]int{0, 1, 0}, blocks)
	if got := NewMarkov(prof, 2, depth).Predict(5); cap(got) > blocks || !reflect.DeepEqual(got, []int{6, 7, 8, 9}) {
		t.Fatalf("markov fallback Predict(5) = %v with capacity %d, want blocks 6..9 in at most %d", got, cap(got), blocks)
	}
}

func TestMarkovTopKAndFallback(t *testing.T) {
	// 0→7 twice, 0→3 once, 7→0 always.
	prof := traceprof.BuildProfile([]int{0, 7, 0, 3, 0, 7, 0}, 10)
	m := NewMarkov(prof, 2, 4)
	if m.Name() != "markov" {
		t.Fatal(m.Name())
	}
	if got := m.Predict(0); !reflect.DeepEqual(got, []int{7, 3}) {
		t.Fatalf("Predict(0) = %v", got)
	}
	if got := m.Predict(7); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Predict(7) = %v", got)
	}
	// Block 5 never seen: sequential fallback.
	if got := m.Predict(5); !reflect.DeepEqual(got, []int{6, 7, 8, 9}) {
		t.Fatalf("Predict(5) = %v", got)
	}
	// topK=1 truncates to the most likely successor.
	if got := NewMarkov(prof, 1, 0).Predict(0); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("topK=1 Predict(0) = %v", got)
	}
	// Fallback disabled: unseen blocks predict nothing.
	if got := NewMarkov(prof, 2, 0).Predict(5); got != nil {
		t.Fatalf("no-fallback Predict(5) = %v", got)
	}
}

func TestNew(t *testing.T) {
	prof := traceprof.BuildProfile([]int{0, 1, 0, 1}, 16)

	p, err := New("sequential", Config{Blocks: 16})
	if err != nil || p.Name() != "sequential" {
		t.Fatalf("sequential: %v %v", p, err)
	}
	if got := p.Predict(0); len(got) != 4 { // default depth
		t.Fatalf("default depth Predict = %v", got)
	}

	p, err = New("markov", Config{Blocks: 16, Profile: prof})
	if err != nil || p.Name() != "markov" {
		t.Fatalf("markov: %v %v", p, err)
	}

	for _, bad := range []struct {
		name string
		cfg  Config
	}{
		{"markov", Config{Blocks: 16}},                // no profile
		{"hotset", Config{Blocks: 16, Profile: prof}}, // unknown name
		{"mystery", Config{Blocks: 16}},               // unknown name
		{"sequential", Config{}},                      // no blocks
	} {
		if _, err := New(bad.name, bad.cfg); err == nil {
			t.Errorf("New(%s, %+v) accepted", bad.name, bad.cfg)
		}
	}
}
