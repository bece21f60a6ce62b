package main

import (
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The machine this benchmark runs on shares its cores with other tenants,
// and its speed drifts by 10-50% from one second to the next. To keep
// that drift out of the timings, the timed run is cut into short rounds,
// and a fixed reference workload is timed between rounds while the
// daemon idles. Each round's times are divided by the slowness measured
// around it, so a metric reads what it would on the machine at its
// nominal speed. The reference lives in the benchmark, not in the program
// under test, so no change to the program can move it.
//
// The reference has two halves, matching the two resources the workloads
// wait on: two goroutines sorting a fixed array (CPU), and two clients
// fetching 32 bytes from a trivial net/http server on loopback (syscalls,
// wake-ups and the HTTP stack). Slowness is the geometric mean of each
// half's time over its nominal time.

// Nominal reference times: roughly the fast end of what the halves take
// on a 2-vCPU 2.1 GHz Xeon guest.
const (
	sortNominal = 2500 * time.Microsecond
	echoNominal = 5500 * time.Microsecond
	echoFetches = 150 // per echo client
)

var sortInput = func() []int {
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 1<<15)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}()

// reference owns the loopback echo server of the reference workload.
type reference struct {
	srv  *http.Server
	done chan struct{}
	url  string
	hc   *http.Client
}

func newReference() (*reference, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := make([]byte, 32)
	r := &reference{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write(body) //nolint:errcheck — the client reports failures
		})},
		done: make(chan struct{}),
		url:  "http://" + l.Addr().String() + "/",
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	go func() {
		defer close(r.done)
		r.srv.Serve(l) //nolint:errcheck — returns ErrServerClosed on close
	}()
	return r, nil
}

func (r *reference) close() {
	r.hc.CloseIdleConnections()
	r.srv.Close()
	<-r.done
}

// slowness times both halves of the reference workload and returns the
// geometric mean of measured over nominal time: 1 at nominal speed,
// above 1 when the machine runs slow.
func (r *reference) slowness() (float64, error) {
	echo, err := r.echo()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(float64(sortTime()) / float64(sortNominal) * float64(echo) / float64(echoNominal)), nil
}

// sortTime is the median of five timings of two goroutines each sorting
// a copy of sortInput.
func sortTime() time.Duration {
	bufs := [2][]int{make([]int, len(sortInput)), make([]int, len(sortInput))}
	ds := make([]time.Duration, 5)
	for i := range ds {
		for _, b := range bufs {
			copy(b, sortInput)
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, b := range bufs {
			wg.Add(1)
			go func(b []int) {
				defer wg.Done()
				sort.Ints(b)
			}(b)
		}
		wg.Wait()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// echo times two closed-loop clients fetching from the echo server.
func (r *reference) echo() (time.Duration, error) {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < echoFetches && errs[k] == nil; i++ {
				resp, err := r.hc.Get(r.url)
				if err != nil {
					errs[k] = err
					return
				}
				_, errs[k] = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(k)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// timedAtNominal runs fn between two reference timings and returns its
// duration divided by the mean slowness around it.
func (r *reference) timedAtNominal(fn func() error) (time.Duration, error) {
	before, err := r.slowness()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	after, err := r.slowness()
	if err != nil {
		return 0, err
	}
	return atNominal(d, (before+after)/2), nil
}

func atNominal(d time.Duration, slow float64) time.Duration {
	return time.Duration(float64(d) / slow)
}

// paced replays lists in rounds with run, dividing every round's
// latencies and elapsed time by the slowness measured around it.
func (r *reference) paced(lists [][]op, rounds int, run func([][]op, outcome) outcome) (outcome, error) {
	var out outcome
	prev, err := r.slowness()
	if err != nil {
		return out, err
	}
	slows := []float64{prev}
	for k := 0; k < rounds; k++ {
		chunk := make([][]op, len(lists))
		for i, l := range lists {
			chunk[i] = l[len(l)*k/rounds : len(l)*(k+1)/rounds]
		}
		o := run(chunk, outcome{})
		next, err := r.slowness()
		if err != nil {
			return out, err
		}
		slow := (prev + next) / 2
		prev = next
		slows = append(slows, next)
		for _, ds := range [][]time.Duration{o.reads, o.writes} {
			for i, d := range ds {
				ds[i] = atNominal(d, slow)
			}
		}
		out.reads = append(out.reads, o.reads...)
		out.writes = append(out.writes, o.writes...)
		out.attempted += o.attempted
		out.failed += o.failed
		out.served += o.served
		if out.firstErr == nil {
			out.firstErr = o.firstErr
		}
		out.elapsed += atNominal(o.elapsed, slow)
	}
	out.slowness = medianFloat(slows)
	return out, nil
}
