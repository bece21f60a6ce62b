package main

// The layer-peel traced run. It replays the same request lists against
// each layer's public entry point in turn: codecompd over HTTP, an
// in-process romserver.Server configured like the daemon, then the codec
// API directly. Every call is a span under the request's trace ID; a
// layer's self time is the difference between the mean times of adjacent
// entry points, and the daemon's /metrics supply the counts.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"codecomp"
	"codecomp/internal/cluster"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// directReps is how often the write-path layers (unmarshal, sidecar
// build, store save) are timed directly; their medians are reported.
const directReps = 15

// daemonOptions mirrors codecompd's default flags, so the in-process
// replay serves with the daemon's configuration.
func daemonOptions(reg *obsv.Registry) romserver.Options {
	return romserver.Options{
		CacheBlocks:      8192,
		CacheShards:      16,
		Workers:          8,
		PrefetchDepth:    4,
		TraceBuffer:      65536,
		LoadTimeout:      5 * time.Second,
		LoadAttempts:     3,
		ReverifyInterval: 2 * time.Second,
		Registry:         reg,
		Tracer:           obsv.NewTracer(256, 16),
		Overload:         &overload.Config{},
		Tiering:          &romserver.TieringOptions{Interval: 10 * time.Second},
	}
}

// readRoute is the codecompd route label of the workload's reads.
func readRoute(w workloadSpec) string {
	switch w.name {
	case "refill-hot":
		return "block"
	case "page-cold":
		return "bytes"
	}
	return "text"
}

// traced runs the four passes and reports the per-layer metrics. Each
// pass replays half a timed list, so the traced run costs about as much
// as an untraced one.
func (b *bench) traced(work string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	b.n /= 2
	s, err := b.setUp()
	if err != nil {
		return res, err
	}
	defer s.close()
	passes := make([]outcome, 0, 4)
	tally := func(o outcome) {
		passes = append(passes, o)
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", o.firstErr)
		}
	}

	// HTTP, untraced then traced, for the tracing overhead.
	plain := s.cl.run(s.lists, outcome{})
	tally(plain)
	epoch := time.Now()
	before, err := scrape(s.cl.hc, s.d.base)
	if err != nil {
		return res, err
	}
	web := s.cl.run(s.lists, outcome{trace: true, epoch: epoch})
	tally(web)
	after, err := scrape(s.cl.hc, s.d.base)
	if err != nil {
		return res, err
	}
	daemonWin := window{before, after}
	// The in-process passes must not compete with the daemon for CPU.
	s.close()

	rs, rsWin, addImage, err := b.romserverPass(s.im, s.lists, epoch)
	if err != nil {
		return res, err
	}
	tally(rs)
	cd, err := b.codecPass(s.im, s.lists, epoch)
	if err != nil {
		return res, err
	}
	tally(cd.out)
	direct, err := b.writeLayers(s.im, filepath.Join(b.dir, "store"))
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0

	m, report, err := b.layers(layerInputs{
		plain: plain, web: web, rs: rs, codec: cd, direct: direct,
		daemon: daemonWin, inproc: rsWin, addImage: addImage, compress: s.im.compress,
	})
	if err != nil {
		res.Correct = false
		return res, err
	}
	res.Metrics = m
	fmt.Print(report)

	var spans []span
	for _, p := range passes {
		spans = append(spans, p.spans...)
	}
	path := filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := writeSpans(path, spans); err != nil {
		return res, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return res, nil
}

// romserverPass replays the lists against an in-process server with the
// daemon's options, after the same warm-up, and returns the replay, the
// server's metrics window over it and the mean AddImage time.
func (b *bench) romserverPass(im images, lists [][]op, epoch time.Time) (outcome, window, time.Duration, error) {
	reg := obsv.NewRegistry()
	srv := romserver.New(daemonOptions(reg))
	defer srv.Close()
	var adds []time.Duration
	if !b.w.tiered {
		for i, p := range im.payloads {
			t0 := time.Now()
			if _, err := srv.AddImage(imageName(b.w, i), p); err != nil {
				return outcome{}, window{}, 0, err
			}
			adds = append(adds, time.Since(t0))
		}
	}
	texts := im.texts()
	bufs := make([]bytes.Buffer, len(lists))
	step := func(list int, o op, id int, out *outcome) {
		buf := &bufs[list]
		buf.Reset()
		ctx := context.Background()
		var err error
		t0 := time.Now()
		switch o.kind {
		case opBlock:
			var data []byte
			data, _, err = srv.BlockContext(ctx, imageName(b.w, o.img), o.a)
			buf.Write(data)
		case opBytes:
			var v *romserver.View
			if v, err = srv.ReadAtContext(ctx, imageName(b.w, o.img), o.a, o.b); err == nil {
				_, err = v.WriteTo(buf)
				v.Close()
			}
		case opDeploy:
			name := deployName(o)
			out.attempted++
			if _, err = srv.AddImage(name, im.payloads[0]); err != nil {
				out.fail(err)
				return
			}
			out.sample(&out.writes, "romserver.write", id, t0, time.Since(t0))
			t0 = time.Now()
			_, err = srv.WriteText(name, buf)
			d := time.Since(t0)
			if rerr := srv.RemoveImage(name); err == nil {
				err = rerr
			}
			if err == nil {
				out.sample(&out.reads, "romserver", id, t0, d)
			}
			out.attempted++
			if err == nil && !bytes.Equal(buf.Bytes(), texts[0]) {
				err = fmt.Errorf("romserver: text of %s mismatched", name)
			}
			if err != nil {
				out.fail(err)
			}
			return
		}
		d := time.Since(t0)
		out.attempted++
		if err == nil && !bytes.Equal(buf.Bytes(), want(texts, o)) {
			err = fmt.Errorf("romserver: %s mismatched", o.path(b.w))
		}
		if err != nil {
			out.fail(err)
			return
		}
		out.served += int64(buf.Len())
		out.sample(&out.reads, "romserver", id, t0, d)
	}
	if warm := replay(b.warmLists(im.progs, lists), outcome{}, step); warm.failed > 0 {
		return outcome{}, window{}, 0, fmt.Errorf("romserver warm-up: %w", warm.firstErr)
	}
	before, err := registryScrape(reg)
	if err != nil {
		return outcome{}, window{}, 0, err
	}
	out := replay(lists, outcome{trace: true, epoch: epoch, parent: "http"}, step)
	after, err := registryScrape(reg)
	if err != nil {
		return outcome{}, window{}, 0, err
	}
	adds = append(adds, out.writes...)
	return out, window{before, after}, mean(adds), nil
}

func registryScrape(reg *obsv.Registry) (obsv.Parsed, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obsv.ParsePrometheus(&buf)
}

// codecResult is the codec pass: one span per op plus the time and block
// count per format.
type codecResult struct {
	out      outcome
	nsBlocks map[string]float64 // format -> ns per block decode
}

// codecPass replays the lists straight against the codec API on one
// goroutine, decoding every block each op covers (there is no cache at
// this layer): AppendBlock per block, AppendBlockPrefix for a window's
// mid-block tail, and for a deploy cycle UnmarshalAny, the sidecar pass
// and the text decode.
func (b *bench) codecPass(im images, lists [][]op, epoch time.Time) (codecResult, error) {
	codecs := make([]codecomp.BlockCodec, len(im.payloads))
	for i, p := range im.payloads {
		c, err := codecomp.UnmarshalAny(p)
		if err != nil {
			return codecResult{}, err
		}
		codecs[i] = c
	}
	texts := im.texts()
	var flat []op
	for _, l := range lists {
		flat = append(flat, l...)
	}
	var dst []byte
	var blocks int
	step := func(_ int, o op, id int, out *outcome) {
		var err error
		dst = dst[:0]
		skip := 0 // leading bytes of dst before the requested window
		t0 := time.Now()
		switch o.kind {
		case opBlock:
			dst, err = codecomp.AppendBlock(codecs[o.img], dst, o.a)
			blocks++
		case opBytes:
			// Full blocks cover the window's head; the tail block ending
			// mid-block decodes only its prefix, as the daemon does.
			first, last := o.a/blockSize, (o.a+o.b-1)/blockSize
			for k := first; k <= last && err == nil; k++ {
				if k == last && (o.a+o.b)%blockSize != 0 {
					dst, _, err = codecomp.AppendBlockPrefix(codecs[o.img], dst, k, o.a+o.b-k*blockSize)
				} else {
					dst, err = codecomp.AppendBlock(codecs[o.img], dst, k)
				}
				blocks++
			}
			skip = o.a - first*blockSize
		case opDeploy:
			out.attempted++
			var c codecomp.BlockCodec
			if c, err = codecomp.UnmarshalAny(im.payloads[0]); err == nil {
				out.sample(nil, "codec.unmarshal", id, t0, time.Since(t0))
				t1 := time.Now()
				err = sidecar(c)
				out.sample(&out.writes, "codec.sidecar", id, t1, time.Since(t1))
			}
			if err != nil {
				out.fail(err)
				return
			}
			t0 = time.Now()
			for k := 0; k < c.NumBlocks() && err == nil; k++ {
				dst, err = codecomp.AppendBlock(c, dst, k)
				blocks++
			}
		}
		d := time.Since(t0)
		out.attempted++
		if err == nil {
			w := texts[0]
			if o.kind != opDeploy {
				w = want(texts, o)
			}
			if !bytes.Equal(dst[skip:], w) {
				err = fmt.Errorf("codec: %s mismatched", o.path(b.w))
			}
		}
		if err != nil {
			out.fail(err)
			return
		}
		out.sample(&out.reads, "codec", id, t0, d)
	}
	out := replay([][]op{flat}, outcome{trace: true, epoch: epoch, parent: "romserver"}, step)
	res := codecResult{out: out, nsBlocks: map[string]float64{}}
	if !b.w.tiered {
		res.nsBlocks[codecomp.FormatSAMC] = float64(sum(out.reads).Nanoseconds()) / float64(blocks)
		return res, nil
	}
	// A tiered text decode interleaves tiers block by block, too finely
	// to time per call; time each tier's blocks as one batch instead.
	t := codecs[0].(*codecomp.TieredImage)
	byTier := make(map[int][]int)
	for k := 0; k < t.NumBlocks(); k++ {
		tier, err := t.TierOf(k)
		if err != nil {
			return res, err
		}
		byTier[tier] = append(byTier[tier], k)
	}
	for tier, ks := range byTier {
		t0 := time.Now()
		for r := 0; r < directReps; r++ {
			for _, k := range ks {
				var err error
				if dst, err = t.AppendBlock(dst[:0], k); err != nil {
					return res, err
				}
			}
		}
		res.nsBlocks[t.Tiers()[tier]] = float64(time.Since(t0).Nanoseconds()) / float64(directReps*len(ks))
	}
	return res, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sidecar repeats romserver's registration pass through the codec API:
// decode every block and CRC32-C it.
func sidecar(c codecomp.BlockCodec) error {
	for k := 0; k < c.NumBlocks(); k++ {
		blk, err := c.Block(k)
		if err != nil {
			return err
		}
		crc32.Checksum(blk, castagnoli)
	}
	return nil
}

// writeTimes are the write path's layers timed directly on the upload
// payload (the deploy image, or gcc's on the read-only workloads).
type writeTimes struct {
	unmarshal, sidecar, save time.Duration
}

func (b *bench) writeLayers(im images, dir string) (writeTimes, error) {
	payload := im.payloads[len(im.payloads)-1] // deploy image, or gcc
	st, err := cluster.OpenStore(dir)
	if err != nil {
		return writeTimes{}, err
	}
	var un, sc, sv []time.Duration
	for r := 0; r < directReps; r++ {
		t0 := time.Now()
		c, err := codecomp.UnmarshalAny(payload)
		if err != nil {
			return writeTimes{}, err
		}
		t1 := time.Now()
		if err := sidecar(c); err != nil {
			return writeTimes{}, err
		}
		t2 := time.Now()
		if err := st.Save(fmt.Sprintf("probe-%d", r), payload); err != nil {
			return writeTimes{}, err
		}
		un, sc, sv = append(un, t1.Sub(t0)), append(sc, t2.Sub(t1)), append(sv, time.Since(t2))
	}
	return writeTimes{summarize(un).P50, summarize(sc).P50, summarize(sv).P50}, nil
}

type layerInputs struct {
	plain, web, rs outcome
	codec          codecResult
	direct         writeTimes
	daemon, inproc window
	addImage       time.Duration
	compress       time.Duration
}

// layers turns the four passes into the per-layer metrics and a readable
// report of each layer's self time and the unattributed residual.
func (b *bench) layers(in layerInputs) (map[string]metric, string, error) {
	m := map[string]metric{}
	set := func(k string, v float64, unit string) { m[k] = metric{v, unit} }
	reads := float64(len(in.web.reads))

	handler, err := in.daemon.histogram("codecompd_http_request_seconds", map[string]string{"route": readRoute(b.w)})
	if err != nil {
		return nil, "", err
	}
	dc, err := in.daemon.counters("blockcache_hits_total", "blockcache_misses_total", "blockcache_evictions_total",
		"blockcache_deduped_total", "blockcache_prefetch_hits_total", "romserver_prefetch_completed_total",
		"romserver_range_dispatches_total", "romserver_decompressions_total", "romserver_partial_decodes_total",
		"romserver_partial_decoded_bytes_total")
	if err != nil {
		return nil, "", err
	}
	diag, err := diagnose(in.daemon, in.web.attempted)
	if err != nil {
		return nil, "", err
	}
	qwait, err := in.daemon.histogram("romserver_queue_wait_seconds", nil)
	if err != nil {
		return nil, "", err
	}
	verify, err := in.daemon.histogram("romserver_verify_seconds", nil)
	if err != nil {
		return nil, "", err
	}
	decode, err := in.daemon.histogram("romserver_decode_seconds", nil)
	if err != nil {
		return nil, "", err
	}
	// The in-process server's view of the same ops, per read op.
	perOp := func(name string) (float64, error) {
		h, err := in.inproc.histogram(name, nil)
		return h.Sum * 1e6 / float64(len(in.rs.reads)), err
	}
	rsQueue, err := perOp("romserver_queue_wait_seconds")
	if err != nil {
		return nil, "", err
	}
	rsDecode, err := perOp("romserver_decode_seconds")
	if err != nil {
		return nil, "", err
	}
	rsVerify, err := perOp("romserver_verify_seconds")
	if err != nil {
		return nil, "", err
	}
	rsDecodes, err := in.inproc.counter("romserver_decompressions_total", nil)
	if err != nil {
		return nil, "", err
	}

	// Codec ns per block, weighted over the formats the workload decodes.
	var codecNs float64
	for _, v := range in.codec.nsBlocks {
		codecNs += v / float64(len(in.codec.nsBlocks))
	}
	client := us(mean(in.web.reads))
	handlerUs := handler.Mean() * 1e6
	call := us(mean(in.rs.reads))
	transport := client - handlerUs
	httpSelf := handlerUs - call
	decodesPerOp := rsDecodes / float64(len(in.rs.reads))
	codecUs := codecNs * decodesPerOp / 1000
	rsSelf := call - rsQueue - rsDecode - rsVerify
	unattributed := client - (transport + httpSelf + rsSelf + rsQueue + codecUs + rsVerify)

	blockBytesServed := float64(blockSize)
	if b.w.tiered {
		blockBytesServed = tierBlock
	}
	decodedBytes := (dc["romserver_decompressions_total"]-dc["romserver_partial_decodes_total"])*blockBytesServed +
		dc["romserver_partial_decoded_bytes_total"]

	set("e2e.read_mean_us", client, "us")
	set("net.transport_us", transport, "us")
	set("codecompd.handler_us", handlerUs, "us")
	set("codecompd.self_us", httpSelf, "us")
	set("romserver.call_us", call, "us")
	set("romserver.self_us", rsSelf, "us")
	set("romserver.queue_wait_us", qwait.Mean()*1e6, "us")
	set("romserver.verify_ns_per_block", verify.Mean()*1e9, "ns")
	set("romserver.dispatches_per_read", dc["romserver_range_dispatches_total"]/reads, "count")
	set("romserver.decoded_bytes_per_served_byte", ratio(decodedBytes, float64(in.web.served)), "ratio")
	set("romserver.prefetch_useful_ratio", ratio(dc["blockcache_prefetch_hits_total"], dc["romserver_prefetch_completed_total"]), "ratio")
	set("romserver.decodes_per_op", dc["romserver_decompressions_total"]/reads, "count")
	set("codec.decode_ns_per_block", decode.Mean()*1e9, "ns")
	for _, f := range []string{"samc", "rans", "huffman", "raw"} {
		set("codec.call_ns_per_block."+f, in.codec.nsBlocks[f], "ns")
	}
	set("codec.decode_us_per_op", codecUs, "us")
	set("codec.unmarshal_ms", ms(in.direct.unmarshal), "ms")
	set("codec.sidecar_ms", ms(in.direct.sidecar), "ms")
	set("codec.compress_ms", ms(in.compress), "ms")
	set("cluster.store_save_ms", ms(in.direct.save), "ms")
	set("romserver.add_image_ms", ms(in.addImage), "ms")
	set("blockcache.hit_ratio", diag.hitRatio, "ratio")
	set("blockcache.evictions_per_op", diag.evictions/reads, "count")
	set("blockcache.deduped_per_op", diag.deduped/reads, "count")
	set("blockcache.range_cached_share", diag.rangeCached, "ratio")
	set("overload.rejects", diag.rejects, "count")
	set("unattributed_us", unattributed, "us")
	set("trace.overhead_us", us(summarize(in.web.reads).P50)-us(summarize(in.plain.reads).P50), "us")
	set("share.http", ratio(transport+httpSelf, client), "ratio")
	set("share.romserver_codec", ratio(call, client), "ratio")
	writeMean := 0.0
	if len(in.web.writes) > 0 {
		writeMean = ms(mean(in.web.writes))
	}
	set("e2e.write_mean_ms", writeMean, "ms")
	set("share.write_codec", ratio(ms(in.direct.unmarshal+in.direct.sidecar), writeMean), "ratio")

	var r strings.Builder
	fmt.Fprintf(&r, "record: workload=%s seed=%d %s\n", b.w.name, b.seed, diag)
	fmt.Fprintf(&r, "layers: workload=%s read mean %.1f us (traced p50 %.1f, untraced p50 %.1f)\n",
		b.w.name, client, us(summarize(in.web.reads).P50), us(summarize(in.plain.reads).P50))
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"net.transport", transport}, {"codecompd.self", httpSelf}, {"romserver.self", rsSelf},
		{"romserver.queue_wait", rsQueue}, {"codec.decode (direct)", codecUs}, {"romserver.verify", rsVerify},
		{"unattributed", unattributed},
	} {
		fmt.Fprintf(&r, "  %-24s %10.2f us  %6.1f%%\n", l.name, l.v, 100*ratio(l.v, client))
	}
	if writeMean > 0 {
		fmt.Fprintf(&r, "  write mean %.3f ms: unmarshal %.3f + sidecar %.3f (%.1f%%), store save %.3f\n",
			writeMean, ms(in.direct.unmarshal), ms(in.direct.sidecar), 100*m["share.write_codec"].Value, ms(in.direct.save))
	}
	return m, r.String(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / time.Duration(len(xs))
}

// writeSpans writes the run's spans as JSON lines, ordered by trace ID.
func writeSpans(path string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Trace < spans[j].Trace })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
