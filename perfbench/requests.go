package main

// Request generation. Everything in this file is a pure function of the
// workload name and the seed: it never reads the clock (the test suite
// checks this file's imports), so the same seed always yields the same
// byte-identical request lists.

import (
	"fmt"
	"math/rand"

	"codecomp"
)

// Block geometry and window size shared by every workload.
const (
	blockSize   = 32   // SAMC block size of the read-only images (one I-cache line)
	tierBlock   = 128  // block size of the tiered deploy image
	windowBytes = 4096 // page-cold read size: one demand page
)

// opKind is the HTTP operation one request performs.
type opKind uint8

const (
	opBlock  opKind = iota // GET /images/{img}/blocks/{a}
	opBytes                // GET /images/{img}/bytes?off={a}&len={b}
	opDeploy               // POST, GET .../text, DELETE of image "deploy-{b}-{a}"
	opUpload               // POST, DELETE of image "upload-{b}-{a}"
)

// op is one precomputed request. img indexes the workload's image list.
type op struct {
	kind opKind
	img  int
	a, b int
}

// workloadSpec names a workload's images and client count. Programs are
// fixed by profile name; only the request lists depend on the seed.
type workloadSpec struct {
	name     string
	profiles []string // SAMC images served read-only, or the tiered image's profile
	clients  int
	// perSecond is the nominal request rate used to size a run: a run is
	// seconds*perSecond requests, fixed before any request is timed.
	perSecond int
	tiered    bool
}

var workloads = []workloadSpec{
	{name: "refill-hot", profiles: []string{"gcc"}, clients: 2, perSecond: 16000},
	{name: "page-cold", profiles: []string{"go", "perl", "vortex", "gcc"}, clients: 2, perSecond: 1800},
	{name: "deploy-cycle", profiles: []string{"go"}, clients: 1, perSecond: 55, tiered: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// program is one generated MIPS program and its text.
type program struct {
	text []byte
	mips *codecomp.MIPSProgram
}

func generate(profile string) program {
	p := codecomp.GenerateMIPS(codecomp.MustProfile(profile))
	return program{text: p.Text(), mips: p}
}

// blockTrace is the program's synthetic fetch trace mapped to 32-byte
// block indices with consecutive duplicates removed (the refill engine's
// one-line buffer absorbs them), cycled until it holds n requests.
func blockTrace(p program, seed int64, n int) []int {
	blocks := (len(p.text) + blockSize - 1) / blockSize
	out := make([]int, 0, n)
	fetches := 8 * n // about 6.4 fetches per block change on these programs
	for len(out) < n {
		last := -1
		for _, a := range p.mips.Trace(seed, fetches) {
			b := int(a-codecomp.TextBase) / blockSize
			if b != last && b < blocks {
				out = append(out, b)
				last = b
				if len(out) == n {
					break
				}
			}
		}
	}
	return out
}

// requestLists builds one fixed request list per client, n requests in
// total, from the seed alone.
func requestLists(w workloadSpec, progs []program, seed int64, n int) [][]op {
	per := (n + w.clients - 1) / w.clients
	lists := make([][]op, w.clients)
	switch w.name {
	case "refill-hot":
		for c := range lists {
			for _, b := range blockTrace(progs[0], seed*int64(len(lists))+int64(c), per) {
				lists[c] = append(lists[c], op{kind: opBlock, a: b})
			}
		}
	case "page-cold":
		pages := pageOrder(progs, seed)
		for i := 0; i < n; i++ {
			lists[i%w.clients] = append(lists[i%w.clients], pages[i%len(pages)])
		}
	case "deploy-cycle":
		for c := range lists {
			for i := 0; i < per; i++ {
				lists[c] = append(lists[c], op{kind: opDeploy, a: c*per + i, b: int(seed)})
			}
		}
	}
	return lists
}

// pageOrder is page-cold's cycle: every 4 KiB window of the four texts,
// all starting at one seed-drawn offset within their page, in a seeded
// order. The lists repeat this order, so a page comes back only after
// every other page (about 730 KB, 2.8x the daemon's cache) has been read
// and every read misses. Windows of one cycle tile the texts without
// overlap, so a read decodes its blocks in a single miss run.
func pageOrder(progs []program, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(windowBytes)
	var pages []op
	for img, p := range progs {
		for off := first; off+windowBytes <= len(p.text); off += windowBytes {
			pages = append(pages, op{kind: opBytes, img: img, a: off, b: windowBytes})
		}
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	return pages
}

// tierAssignment is the deploy image's fixed per-block tier: a pseudo-
// random draw from a constant seed puts about a quarter of the blocks in
// every tier. It does not vary with the run's seed, so neither does the
// deploy image's ratio.
func tierAssignment(textLen int) []uint8 {
	rng := rand.New(rand.NewSource(1))
	as := make([]uint8, (textLen+tierBlock-1)/tierBlock)
	for i := range as {
		as[i] = uint8(rng.Intn(4))
	}
	return as
}

// imageName is the registered name of image i of a read-only workload.
func imageName(w workloadSpec, i int) string {
	return w.profiles[i] + "-samc"
}

// uploadList is the read-only workloads' write phase: n uploads of the
// gcc image, each deleted again, under fresh names.
func uploadList(seed int64, n int) [][]op {
	l := make([]op, n)
	for i := range l {
		l[i] = op{kind: opUpload, a: i, b: int(seed)}
	}
	return [][]op{l}
}

// deployName is the fresh name a deploy or upload op registers its image
// under: the run's seed and the op's number.
func deployName(o op) string {
	prefix := "deploy"
	if o.kind == opUpload {
		prefix = "upload"
	}
	return fmt.Sprintf("%s-%d-%d", prefix, o.b, o.a)
}

// path is the request's URL path and query; deploy cycles render their
// upload.
func (o op) path(w workloadSpec) string {
	switch o.kind {
	case opBlock:
		return fmt.Sprintf("/images/%s/blocks/%d", imageName(w, o.img), o.a)
	case opBytes:
		return fmt.Sprintf("/images/%s/bytes?off=%d&len=%d", imageName(w, o.img), o.a, o.b)
	default:
		return "/images?name=" + deployName(o)
	}
}
