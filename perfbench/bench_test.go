package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"codecomp/internal/obsv"
)

// encodeLists renders request lists as the text the clients send, one
// request per line and a blank line between clients.
func encodeLists(w workloadSpec, lists [][]op) []byte {
	var buf bytes.Buffer
	for _, l := range lists {
		for _, o := range l {
			buf.WriteString(o.path(w))
			buf.WriteByte('\n')
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func programs(w workloadSpec) []program {
	progs := make([]program, len(w.profiles))
	for i, p := range w.profiles {
		progs[i] = generate(p)
	}
	return progs
}

// TestRequestListsDependOnlyOnSeed: deploy-cycle's cycles are all alike
// by design, so its lists differ between seeds only in the fresh names.
func TestRequestListsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		progs := programs(w)
		a := encodeLists(w, requestLists(w, progs, 7, 3000))
		b := encodeLists(w, requestLists(w, progs, 7, 3000))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w.name)
		}
		if c := encodeLists(w, requestLists(w, progs, 8, 3000)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.name)
		}
		if n := bytes.Count(a, []byte("\n")) - w.clients; n != 3000 {
			t.Errorf("%s: %d requests, want 3000", w.name, n)
		}
	}
}

// TestRequestGenerationReadsNoClock keeps the generator a pure function
// of the seed: requests.go may not import time.
func TestRequestGenerationReadsNoClock(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "requests.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
			t.Fatal("requests.go imports time; request generation must not read the clock")
		}
	}
}

func TestPageColdReadsEveryPageOncePerCycle(t *testing.T) {
	w, _ := lookupWorkload("page-cold")
	progs := programs(w)
	pages := pageOrder(progs, 3)
	seen := make(map[op]bool)
	first := pages[0].a % windowBytes
	for _, p := range pages {
		if seen[p] {
			t.Fatalf("page %+v twice in one cycle", p)
		}
		seen[p] = true
		if end := p.a + p.b; end > len(progs[p.img].text) {
			t.Fatalf("page %+v runs past its text (%d bytes)", p, len(progs[p.img].text))
		}
		// All windows share one offset, so windows of an image never
		// overlap and a read is one miss run.
		if p.a%windowBytes != first {
			t.Fatalf("page %+v does not start at the cycle's offset %d", p, first)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	q := summarize(xs)
	if q.N != 100 || q.P50 != 50*time.Millisecond || q.P90 != 90*time.Millisecond {
		t.Errorf("summarize(1..100ms) = %+v, want N=100 P50=50ms P90=90ms", q)
	}
	if xs[0] != 100*time.Millisecond {
		t.Error("summarize reordered its input")
	}
	if q := summarize(nil); q.N != 0 {
		t.Errorf("summarize(nil).N = %d", q.N)
	}
}

func parse(t *testing.T, text string) obsv.Parsed {
	t.Helper()
	p, err := obsv.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const scrapeBefore = `# TYPE blockcache_hits_total counter
blockcache_hits_total 100
# TYPE romserver_decode_seconds histogram
romserver_decode_seconds_bucket{le="0.001"} 4
romserver_decode_seconds_bucket{le="+Inf"} 5
romserver_decode_seconds_sum 0.01
romserver_decode_seconds_count 5
`

func TestWindowDifferences(t *testing.T) {
	after := parse(t, `# TYPE blockcache_hits_total counter
blockcache_hits_total 130
# TYPE romserver_decode_seconds histogram
romserver_decode_seconds_bucket{le="0.001"} 6
romserver_decode_seconds_bucket{le="+Inf"} 8
romserver_decode_seconds_sum 0.02
romserver_decode_seconds_count 8
`)
	w := window{parse(t, scrapeBefore), after}
	if v, err := w.counter("blockcache_hits_total", nil); err != nil || v != 30 {
		t.Errorf("counter delta = %v, %v; want 30", v, err)
	}
	if h, err := w.histogram("romserver_decode_seconds", nil); err != nil || h.Count != 3 {
		t.Errorf("histogram delta count = %v, %v; want 3", h.Count, err)
	}
}

// TestWindowRejectsCounterReset: a daemon restarted between scrapes
// starts its counters from zero, and the window must refuse to measure
// across it.
func TestWindowRejectsCounterReset(t *testing.T) {
	restarted := parse(t, `# TYPE blockcache_hits_total counter
blockcache_hits_total 7
# TYPE romserver_decode_seconds histogram
romserver_decode_seconds_bucket{le="0.001"} 1
romserver_decode_seconds_bucket{le="+Inf"} 1
romserver_decode_seconds_sum 0.0005
romserver_decode_seconds_count 1
`)
	w := window{parse(t, scrapeBefore), restarted}
	if _, err := w.counter("blockcache_hits_total", nil); err == nil {
		t.Error("counter went from 100 to 7 without an error")
	}
	if _, err := w.histogram("romserver_decode_seconds", nil); err == nil {
		t.Error("histogram count went from 5 to 1 without an error")
	}
	gone := window{parse(t, scrapeBefore), parse(t, "")}
	if _, err := gone.counter("blockcache_hits_total", nil); err == nil {
		t.Error("counter vanished between scrapes without an error")
	}
}

// TestReplayNumbersRequestsAcrossLists runs replay's goroutines under the
// race detector and checks every request gets its own trace ID.
func TestReplayNumbersRequestsAcrossLists(t *testing.T) {
	lists := [][]op{make([]op, 100), make([]op, 50)}
	out := replay(lists, outcome{trace: true, epoch: time.Now()}, func(list int, o op, id int, out *outcome) {
		out.attempted++
		out.sample(&out.reads, "test", id, time.Now(), time.Microsecond)
	})
	if out.attempted != 150 || len(out.reads) != 150 || len(out.spans) != 150 {
		t.Fatalf("attempted %d, reads %d, spans %d; want 150 each", out.attempted, len(out.reads), len(out.spans))
	}
	seen := make(map[int]bool)
	for _, s := range out.spans {
		if seen[s.Trace] || s.Trace < 0 || s.Trace >= 150 {
			t.Fatalf("trace ID %d repeated or out of range", s.Trace)
		}
		seen[s.Trace] = true
	}
}
