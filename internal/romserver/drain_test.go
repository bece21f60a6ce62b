package romserver

import (
	"context"
	"runtime"
	"testing"
	"time"

	"codecomp/internal/faultinj"
)

// TestCloseStopsAllGoroutines is the regression test for the graceful-
// drain fix: repeatedly boot a server with a fast reverifier, make an
// image sick enough that reverify passes are actually running loads,
// and assert Close both returns promptly and leaves no goroutines
// behind. Before the fix the reverifier could sit inside a multi-second
// retry ladder after Close was called, so shutdown leaked or stalled.
func TestCloseStopsAllGoroutines(t *testing.T) {
	_, text := testText(t)
	payload := marshalSAMC(t, text)
	baseline := runtime.NumGoroutine()

	for iter := 0; iter < 5; iter++ {
		s := New(Options{ReverifyInterval: time.Millisecond, Workers: 2})
		if _, err := s.AddImage("prog", payload); err != nil {
			t.Fatal(err)
		}
		// Every load fails permanently: the image degrades, the bad list
		// grows, and each reverify pass has real work queued.
		if err := s.SetFaults("prog", &faultinj.Options{ErrorBlocks: []int{0, 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.BlockContext(context.Background(), "prog", i) //nolint:errcheck — failures are the point
		}
		// Let at least one reverify tick start before shutting down.
		time.Sleep(5 * time.Millisecond)

		done := make(chan struct{})
		go func() {
			s.Close() //nolint:errcheck
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close did not return within 5s — reverifier not honoring shutdown", iter)
		}
	}

	// Goroutine counts are noisy (runtime helpers, test harness), so poll
	// for return-to-baseline instead of asserting an instant exact match.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across Close: baseline %d, now %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
