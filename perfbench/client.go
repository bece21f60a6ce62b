package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// span is one traced interval: the request's trace ID, the layer whose
// entry point it times, the layer that caused it ("" for the root) and
// its bounds in nanoseconds since the run's epoch.
type span struct {
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// outcome is what one replay produced: latencies per request class,
// attempted and failed request counts, bytes served and, when tracing,
// one span per timed call.
type outcome struct {
	reads, writes []time.Duration
	attempted     int
	failed        int
	served        int64
	firstErr      error
	spans         []span
	elapsed       time.Duration
	// slowness is the median machine slowness over a paced replay.
	slowness float64

	// trace, epoch and parent configure span recording.
	trace  bool
	epoch  time.Time
	parent string
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// sample records one timed call: its latency into lat (when non-nil)
// and, when tracing, a span for layer under the request's trace ID.
func (o *outcome) sample(lat *[]time.Duration, layer string, id int, t0 time.Time, d time.Duration) {
	if lat != nil {
		*lat = append(*lat, d)
	}
	if o.trace {
		start := t0.Sub(o.epoch).Nanoseconds()
		o.spans = append(o.spans, span{Trace: id, Layer: layer, Parent: o.parent, Start: start, End: start + d.Nanoseconds()})
	}
}

// replay plays every list on its own goroutine, closed loop, calling
// step for each op with its list's index and the op's trace ID (its
// position across all lists), and merges the per-list outcomes. proto
// carries the tracing configuration.
func replay(lists [][]op, proto outcome, step func(list int, o op, id int, out *outcome)) outcome {
	parts := make([]outcome, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	first := 0
	for i := range lists {
		wg.Add(1)
		go func(i, first int) {
			defer wg.Done()
			out := proto
			out.reads = make([]time.Duration, 0, len(lists[i]))
			for k, o := range lists[i] {
				step(i, o, first+k, &out)
			}
			parts[i] = out
		}(i, first)
		first += len(lists[i])
	}
	wg.Wait()
	out := proto
	for _, p := range parts {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.served += p.served
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
		out.spans = append(out.spans, p.spans...)
	}
	out.elapsed = time.Since(start)
	return out
}

// want is the exact bytes a read op must return.
func want(texts [][]byte, o op) []byte {
	text := texts[o.img]
	if o.kind == opBlock {
		end := (o.a + 1) * blockSize
		if end > len(text) {
			end = len(text)
		}
		return text[o.a*blockSize : end]
	}
	return text[o.a : o.a+o.b]
}

// client drives one daemon over keep-alive connections, one per
// closed-loop client, and byte-verifies every response.
type client struct {
	hc   *http.Client
	base string
	w    workloadSpec
	// texts are the expected decompressed programs, indexed like the
	// workload's images; payload is the body of deploy and upload ops.
	texts   [][]byte
	payload []byte
}

func newClient(base string, w workloadSpec, texts [][]byte, payload []byte) *client {
	tr := &http.Transport{
		MaxIdleConns:        w.clients,
		MaxIdleConnsPerHost: w.clients,
		MaxConnsPerHost:     w.clients,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base, w: w, texts: texts, payload: payload}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into buf, returning the
// status code.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// expect checks a response's status and, when want is non-nil, its body.
func expect(what string, status, wantStatus int, got *bytes.Buffer, want []byte) error {
	if status != wantStatus {
		return fmt.Errorf("%s: status %d, want %d: %.200s", what, status, wantStatus, got.String())
	}
	if want != nil && !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("%s: body mismatch (%d bytes, want %d)", what, got.Len(), len(want))
	}
	return nil
}

// run replays the lists over HTTP; see replay.
func (c *client) run(lists [][]op, proto outcome) outcome {
	bufs := make([]bytes.Buffer, len(lists))
	return replay(lists, proto, func(list int, o op, id int, out *outcome) {
		c.step(o, id, out, &bufs[list])
	})
}

// step sends one op and verifies its response byte for byte.
func (c *client) step(o op, id int, out *outcome, buf *bytes.Buffer) {
	if o.kind == opDeploy || o.kind == opUpload {
		c.deploy(o, id, out, buf)
		return
	}
	path := o.path(c.w)
	t0 := time.Now()
	status, err := c.do(http.MethodGet, path, nil, buf)
	d := time.Since(t0)
	out.attempted++
	if err == nil {
		err = expect(path, status, http.StatusOK, buf, want(c.texts, o))
	}
	if err != nil {
		out.fail(err)
		return
	}
	out.served += int64(buf.Len())
	out.sample(&out.reads, "http", id, t0, d)
}

// deploy runs one deploy cycle: upload under a fresh name, read the whole
// text back (opDeploy only), delete. The upload is a write sample, the
// read-back a read sample.
func (c *client) deploy(o op, id int, out *outcome, buf *bytes.Buffer) {
	name := deployName(o)
	steps := []struct {
		method, path string
		body         []byte
		status       int
		want         []byte
		lat          *[]time.Duration
		layer        string
	}{
		{http.MethodPost, "/images?name=" + name, c.payload, http.StatusCreated, nil, &out.writes, "http.write"},
		{http.MethodGet, "/images/" + name + "/text", nil, http.StatusOK, c.texts[0], &out.reads, "http"},
		{http.MethodDelete, "/images/" + name, nil, http.StatusNoContent, nil, nil, "http.delete"},
	}
	if o.kind == opUpload {
		steps = append(steps[:1], steps[2])
	}
	for _, s := range steps {
		t0 := time.Now()
		status, err := c.do(s.method, s.path, s.body, buf)
		d := time.Since(t0)
		out.attempted++
		if err == nil {
			err = expect(s.method+" "+s.path, status, s.status, buf, s.want)
		}
		if err != nil {
			out.fail(err)
			return
		}
		if s.want != nil {
			out.served += int64(buf.Len())
		}
		out.sample(s.lat, s.layer, id, t0, d)
	}
}

// imageRatio fetches GET /images/{name} and returns its reported ratio.
func (c *client) imageRatio(name string) (float64, error) {
	var buf bytes.Buffer
	status, err := c.do(http.MethodGet, "/images/"+name, nil, &buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /images/%s: status %d", name, status)
	}
	var info struct {
		Ratio float64 `json:"ratio"`
	}
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		return 0, fmt.Errorf("GET /images/%s: %w", name, err)
	}
	return info.Ratio, nil
}

// upload posts one image and returns its latency.
func (c *client) upload(name string, image []byte) (time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	status, err := c.do(http.MethodPost, "/images?name="+name, image, &buf)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, expect("upload "+name, status, http.StatusCreated, &buf, nil)
}
