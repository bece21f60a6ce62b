// Command perfbench is the repository's end-to-end benchmark: it runs the
// codecompd daemon built from this tree as a child process on loopback,
// drives one workload closed loop from fixed, seed-derived request lists,
// byte-verifies every response, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its output.
//
//	bash perfbench/run.sh --workload refill-hot --seed 1 --seconds 10 --trace 0
//
// run.sh builds cmd/codecompd and this command into .bench_build first.
// See README.md in this directory for the workloads, the metrics and the
// layer each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"codecomp"
)

// setupReps is how many times a run sets the workload up from a fresh
// daemon; setup_s is their median and the last one serves the timed run.
const setupReps = 3

// pageWarm is how many pages page-cold's warm-up reads: enough to fill
// the daemon's 8192-block cache.
const pageWarm = 70

// roundsPerSecond is how many paced rounds a second of timed run is cut
// into (see pace.go).
const roundsPerSecond = 8

// writeSamples is how many uploads the read-only workloads time after
// their reads, in writeRounds paced rounds.
const (
	writeSamples = 64
	writeRounds  = 16
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with its deferred clean-up (data directories, the
// reference server) done before the exit status is returned.
func run() int {
	name := flag.String("workload", "", "workload: refill-hot, page-cold or deploy-cycle")
	seed := flag.Int64("seed", 1, "seed of the request lists")
	seconds := flag.Int("seconds", 10, "run length; sets the request count at the workload's nominal rate")
	trace := flag.Int("trace", 0, "1 runs the layer-peel traced run and prints per-layer metrics")
	bin := flag.String("daemon", ".bench_build/codecompd", "codecompd binary built from this tree")
	work := flag.String("work", ".bench_build", "scratch directory for data dirs and span files")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 {
		return fail(errors.New("-seconds must be at least 1"))
	}
	if _, err := os.Stat(*bin); err != nil {
		return fail(fmt.Errorf("daemon binary: %w", err))
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)

	ref, err := newReference()
	if err != nil {
		return fail(err)
	}
	defer ref.close()
	b := bench{w: w, seed: *seed, bin: *bin, dir: runDir, n: *seconds * w.perSecond, seconds: *seconds, ref: ref}
	var res result
	if *trace == 1 {
		res, err = b.traced(*work)
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return fail(jerr)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// fail reports an error that leaves no result to print.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 2
}

// bench is one run of one workload.
type bench struct {
	w    workloadSpec
	seed int64
	bin  string
	dir  string
	n    int // requests in the timed list
	// seconds is the nominal run length the request count was sized for.
	seconds int
	// ref scales timings to the machine's nominal speed (see pace.go).
	ref *reference
}

// images is a workload's generated programs and their marshaled images.
type images struct {
	progs    []program
	payloads [][]byte
	ratios   []float64 // each image's own CompressedSize/OrigSize
	stored   int       // compressed bytes over all images
	orig     int       // original bytes over all images
	compress time.Duration
}

func (im images) texts() [][]byte {
	out := make([][]byte, len(im.progs))
	for i, p := range im.progs {
		out[i] = p.text
	}
	return out
}

// build generates the workload's programs and compresses them: SAMC at
// 32-byte blocks for the read-only workloads, a four-tier image with a
// fixed block assignment for deploy-cycle.
func (b *bench) build() (images, error) {
	var im images
	for _, prof := range b.w.profiles {
		p := generate(prof)
		t0 := time.Now()
		var (
			payload []byte
			stored  int
			ratio   float64
		)
		if b.w.tiered {
			img, err := codecomp.CompressTiered(p.text, codecomp.TierSpec{
				BlockSize: tierBlock,
				Tiers:     []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS, codecomp.TierSAMC},
				Assign:    tierAssignment(len(p.text)),
			})
			if err != nil {
				return im, err
			}
			payload, stored, ratio = img.Marshal(), img.CompressedSize(), img.Ratio()
		} else {
			img, err := codecomp.CompressSAMC(p.text, codecomp.SAMCOptions{BlockSize: blockSize, Connected: true})
			if err != nil {
				return im, err
			}
			payload, stored, ratio = img.Marshal(), img.CompressedSize(), img.Ratio()
		}
		im.compress += time.Since(t0)
		im.progs = append(im.progs, p)
		im.payloads = append(im.payloads, payload)
		im.ratios = append(im.ratios, ratio)
		im.stored += stored
		im.orig += len(p.text)
	}
	return im, nil
}

// session is a daemon set up for the timed run.
type session struct {
	d      *daemon
	cl     *client
	im     images
	lists  [][]op
	setups []float64 // seconds per set-up repetition
}

func (s *session) close() {
	if s.cl != nil {
		s.cl.close()
	}
	if s.d != nil {
		s.d.stop()
	}
	s.cl, s.d = nil, nil
}

// setUp sets the workload up setupReps times, each from a fresh daemon,
// and keeps the last daemon for the timed run.
func (b *bench) setUp() (*session, error) {
	progs := make([]program, len(b.w.profiles))
	for i, p := range b.w.profiles {
		progs[i] = generate(p)
	}
	s := &session{lists: requestLists(b.w, progs, b.seed, b.n)}
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			s.close()
		}
		d, err := b.ref.timedAtNominal(func() error { return b.setUpOnce(s, r) })
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setups = append(s.setups, d.Seconds())
	}
	return s, nil
}

// setUpOnce starts a daemon, builds and uploads the workload's images,
// checks the ratio each reports against the local one and warms the
// cache. On error the session holds whatever was started, for close.
func (b *bench) setUpOnce(s *session, r int) error {
	d, err := startDaemon(b.bin, filepath.Join(b.dir, fmt.Sprintf("data-%d", r)))
	if err != nil {
		return err
	}
	s.d = d
	im, err := b.build()
	if err != nil {
		return err
	}
	s.im = im
	s.cl = newClient(d.base, b.w, im.texts(), im.payloads[len(im.payloads)-1])
	if err := b.load(s.cl, im); err != nil {
		return err
	}
	return b.warm(s.cl, im.progs, s.lists)
}

// load uploads the read-only workloads' images and checks every reported
// ratio. deploy-cycle uploads one probe copy of its image for the ratio
// check only.
func (b *bench) load(cl *client, im images) error {
	check := func(name string, want float64) error {
		got, err := cl.imageRatio(name)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("image %s reports ratio %v, computed locally %v", name, got, want)
		}
		return nil
	}
	if b.w.tiered {
		name := "ratio-probe"
		if _, err := cl.upload(name, im.payloads[0]); err != nil {
			return err
		}
		if err := check(name, im.ratios[0]); err != nil {
			return err
		}
		var buf bytes.Buffer
		status, err := cl.do(http.MethodDelete, "/images/"+name, nil, &buf)
		if err != nil {
			return err
		}
		return expect("delete "+name, status, http.StatusNoContent, &buf, nil)
	}
	for i := range im.progs {
		name := imageName(b.w, i)
		if _, err := cl.upload(name, im.payloads[i]); err != nil {
			return err
		}
		if err := check(name, im.ratios[i]); err != nil {
			return err
		}
	}
	return nil
}

// warmLists are the requests that bring a server to the timed run's
// steady state: refill-hot reads every block its lists touch once,
// page-cold fills the cache with the last pages of its cycle,
// deploy-cycle runs three cycles.
func (b *bench) warmLists(progs []program, timed [][]op) [][]op {
	switch b.w.name {
	case "refill-hot":
		seen := make(map[int]bool)
		var l []op
		for _, list := range timed {
			for _, o := range list {
				if !seen[o.a] {
					seen[o.a] = true
					l = append(l, o)
				}
			}
		}
		return [][]op{l}
	case "page-cold":
		pages := pageOrder(progs, b.seed)
		return [][]op{pages[len(pages)-pageWarm:]}
	}
	var cycles []op
	for k := 0; k < 3; k++ {
		cycles = append(cycles, op{kind: opDeploy, a: b.n + k, b: int(b.seed)})
	}
	return [][]op{cycles}
}

func (b *bench) warm(cl *client, progs []program, timed [][]op) error {
	out := cl.run(b.warmLists(progs, timed), outcome{})
	if out.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", out.failed, out.attempted, out.firstErr)
	}
	return nil
}

// untraced is the end-to-end run: set up, replay the lists, report.
func (b *bench) untraced() (result, error) {
	res := result{Metrics: map[string]metric{}}
	s, err := b.setUp()
	if err != nil {
		return res, err
	}
	defer s.close()
	before, err := scrape(s.cl.hc, s.d.base)
	if err != nil {
		return res, err
	}
	out, err := b.ref.paced(s.lists, roundsPerSecond*b.seconds, s.cl.run)
	if err != nil {
		return res, err
	}
	after, err := scrape(s.cl.hc, s.d.base)
	if err != nil {
		return res, err
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", out.firstErr)
	}
	diag, err := diagnose(window{before, after}, out.attempted)
	if err != nil {
		res.Correct = false
		return res, err
	}
	if !b.w.tiered {
		up, err := b.ref.paced(uploadList(b.seed, writeSamples), writeRounds, s.cl.run)
		if err != nil {
			return res, err
		}
		res.Attempted += up.attempted
		res.Failed += up.failed
		res.Correct = res.Failed == 0
		if up.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first upload failure: %v\n", up.firstErr)
		}
		out.writes = up.writes
	}
	reads := summarize(out.reads)
	writes := summarize(out.writes)
	fmt.Printf("record: workload=%s seed=%d requests=%d nominal_elapsed=%.3fs slowness=%.3f reads=%d writes=%d %s\n",
		b.w.name, b.seed, out.attempted, out.elapsed.Seconds(), out.slowness, reads.N, writes.N, diag)
	set := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
	set("read_p50_us", us(reads.P50), "us")
	set("read_p90_us", us(reads.P90), "us")
	set("write_p50_ms", us(writes.P50)/1000, "ms")
	set("write_p90_ms", us(writes.P90)/1000, "ms")
	set("throughput_rps", float64(out.attempted)/out.elapsed.Seconds(), "1/s")
	set("compression_ratio", float64(s.im.stored)/float64(s.im.orig), "ratio")
	set("rss_peak_mb", rss, "MB")
	set("setup_s", medianFloat(s.setups), "s")
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
