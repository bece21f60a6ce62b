// Package codecomp is a from-scratch reproduction of Lekatsas & Wolf,
// "Code Compression for Embedded Systems" (DAC 1998): cache-block
// addressable code compression for embedded CPUs that decompress on I-cache
// refill (the Wolfe/Chanin memory organization).
//
// Two compressors are provided:
//
//   - SAMC (Semiadaptive Markov Compression, §3): ISA-independent; divides
//     fixed-width instructions into bit streams, trains one binary Markov
//     tree per stream, and drives a 24-bit binary arithmetic coder, with
//     interval and model reset at every cache-block boundary.
//   - SADC (Semiadaptive Dictionary Compression, §4): ISA-dependent; splits
//     instructions into opcode/register/immediate streams, grows a
//     per-program dictionary of opcode groups and opcode+operand fusions,
//     and Huffman-codes all resulting streams.
//
// Alongside them come the paper's baselines (UNIX compress, a gzip-class
// LZ77+Huffman coder, and Kozuch & Wolfe byte-Huffman), the synthetic
// SPEC95 workload generator used by the evaluation, the compressed-memory
// simulator (I-cache + LAT + CLB), and decompressor hardware cost models.
//
// Quick start:
//
//	prog := codecomp.GenerateMIPS(codecomp.MustProfile("gcc"))
//	img, err := codecomp.CompressSAMC(prog.Text(), codecomp.SAMCOptions{Connected: true})
//	if err != nil { ... }
//	line, err := img.Block(7) // random-access decompression of one cache block
package codecomp

import (
	"fmt"

	"codecomp/internal/deflate"
	"codecomp/internal/dmc"
	"codecomp/internal/hw"
	"codecomp/internal/kozuch"
	"codecomp/internal/lzw"
	"codecomp/internal/markov"
	"codecomp/internal/memsys"
	"codecomp/internal/rans"
	"codecomp/internal/sadc"
	"codecomp/internal/samc"
	"codecomp/internal/streams"
	"codecomp/internal/synth"
	"codecomp/internal/tiering"
)

// BlockCodec is the interface every block-addressable compressed image
// satisfies: SAMC, SADC, byte-Huffman, rANS and tiered images all allow
// random-access decompression at cache-block granularity.
//
// AppendBlock(dst, i) is the one decode operation: it appends block i to
// dst and leaves dst's prefix untouched; on error the destination
// contents are unspecified and the returned slice is nil. The built-in
// images do it with zero transient heap allocations in steady state
// (pooled or stack decoder scratch), which the serving layer's cache-miss
// path relies on. Block(i) returns the same bytes in a fresh slice.
//
// All implementations are safe for concurrent reads: once an image has been
// built (by Compress* or Unmarshal*), the decode methods and the size
// accessors allocate their decoder state per call and never mutate the
// image, so any number of goroutines may decompress blocks simultaneously.
// This property is load-bearing for the serving layer (internal/romserver)
// and is enforced by TestConcurrentBlockReads under the race detector.
type BlockCodec interface {
	NumBlocks() int
	AppendBlock(dst []byte, i int) ([]byte, error)
	Block(i int) ([]byte, error)
	Decompress() ([]byte, error)
	CompressedSize() int
	Ratio() float64
}

// SAMC re-exports.
type (
	// SAMCOptions configures SAMC compression (block size, word size,
	// stream division, connected trees, probability quantization).
	SAMCOptions = samc.Options
	// SAMCImage is a SAMC-compressed program.
	SAMCImage = samc.Compressed
)

// CompressSAMC compresses text with SAMC.
func CompressSAMC(text []byte, opts SAMCOptions) (*SAMCImage, error) {
	return samc.Compress(text, opts)
}

// SADC re-exports.
type (
	// SADCOptions configures SADC compression.
	SADCOptions = sadc.Options
	// SADCImage is a SADC-compressed program.
	SADCImage = sadc.Compressed
)

// CompressSADCMIPS compresses a MIPS text image with SADC's 4-stream split.
func CompressSADCMIPS(text []byte, opts SADCOptions) (*SADCImage, error) {
	return sadc.Compress(text, sadc.MIPSAdapter{}, opts)
}

// CompressSADCX86 compresses an IA-32 text image with SADC's 3-stream split.
func CompressSADCX86(text []byte, opts SADCOptions) (*SADCImage, error) {
	return sadc.Compress(text, sadc.NewX86Adapter(), opts)
}

// HuffmanImage is a Kozuch & Wolfe byte-Huffman compressed program (the
// Figure 9 baseline).
type HuffmanImage = kozuch.Compressed

// CompressHuffman compresses text with per-program byte Huffman coding at
// the given block size (0 → 32).
func CompressHuffman(text []byte, blockSize int) (*HuffmanImage, error) {
	return kozuch.Compress(text, blockSize)
}

// rANS re-exports.
type (
	// RANSOptions configures interleaved-rANS compression (block size,
	// interleaving factor).
	RANSOptions = rans.Options
	// RANSImage is an interleaved-rANS compressed program.
	RANSImage = rans.Compressed
)

// CompressRANS compresses text with the block-addressable interleaved rANS
// codec (the nibble-parallel decoder analogue; see internal/rans).
func CompressRANS(text []byte, opts RANSOptions) (*RANSImage, error) {
	return rans.Compress(text, opts)
}

// Heat-tiered re-exports: a tiered image keeps one model per codec tier and
// stores every block in exactly one tier, so hot blocks can be served from
// a fast format while cold blocks stay dense (see internal/tiering).
type (
	// TierSpec configures a tiered compression: block geometry plus the
	// ordered tier list (fastest decode first, densest last) and the
	// initial per-block assignment.
	TierSpec = tiering.Spec
	// TieredImage is a mixed-codec compressed program whose blocks can be
	// migrated between tiers in place (encode-verify-swap).
	TieredImage = tiering.Compressed
	// TierPolicy maps traceprof heat profiles to desired per-block tiers.
	TierPolicy = tiering.Policy
	// TierCount summarizes one tier's block population and footprint.
	TierCount = tiering.TierCount
	// TierCostModel gives per-format decode cost in ns/byte for the
	// offline ratio-vs-latency evaluator.
	TierCostModel = tiering.CostModel
)

// Tier format names accepted in TierSpec.Tiers, fastest to densest.
const (
	TierRaw     = tiering.TierRaw
	TierHuffman = tiering.TierHuffman
	TierRANS    = tiering.TierRANS
	TierSAMC    = tiering.TierSAMC
)

// DefaultTierCostModel is a fixed snapshot of per-format decode
// throughputs as ns/byte; see tiering.DefaultCostModel for its source.
var DefaultTierCostModel = tiering.DefaultCostModel

// CompressTiered compresses text into a mixed-codec tiered image.
func CompressTiered(text []byte, spec TierSpec) (*TieredImage, error) {
	return tiering.Compress(text, spec)
}

// LZW (UNIX compress) file-level baseline.
func LZWCompress(data []byte) []byte            { return lzw.Compress(data) }
func LZWDecompress(data []byte) ([]byte, error) { return lzw.Decompress(data) }
func LZWRatio(data []byte) float64              { return lzw.Ratio(data) }

// Deflate (gzip-class) file-level baseline.
func DeflateCompress(data []byte) []byte            { return deflate.Compress(data) }
func DeflateDecompress(data []byte) ([]byte, error) { return deflate.Decompress(data) }
func DeflateRatio(data []byte) float64              { return deflate.Ratio(data) }

// DMC (Cormack & Horspool dynamic Markov coding — the paper's reference
// [3]) is included as the adaptive-modelling reference point: it compresses
// whole files best of all methods here, but needs megabytes of working
// memory and collapses when restarted at every cache block (§3's argument
// for a semiadaptive model).
type (
	// DMCOptions configures the adaptive model (node budget, cloning).
	DMCOptions = dmc.Options
	// DMCCompressed is a whole-file adaptive compression result.
	DMCCompressed = dmc.Compressed
	// DMCBlocks is the per-cache-block variant the paper rules out.
	DMCBlocks = dmc.BlockCompressed
)

// DMCCompress compresses data as one adaptive stream.
func DMCCompress(data []byte, opts DMCOptions) *DMCCompressed {
	return dmc.Compress(data, opts)
}

// DMCDecompress reverses DMCCompress (same options required).
func DMCDecompress(c *DMCCompressed, opts DMCOptions) ([]byte, error) {
	return dmc.Decompress(c, opts)
}

// DMCCompressBlocks restarts the adaptive model at every block boundary.
func DMCCompressBlocks(data []byte, blockSize int, opts DMCOptions) *DMCBlocks {
	return dmc.CompressBlocks(data, blockSize, opts)
}

// Workload generation re-exports.
type (
	// Profile parametrizes one synthetic SPEC95 stand-in benchmark.
	Profile = synth.Profile
	// MIPSProgram is a generated MIPS program with structural metadata.
	MIPSProgram = synth.MIPSProgram
	// X86Program is a generated IA-32 program.
	X86Program = synth.X86Program
)

// SPEC95 returns the 18-benchmark suite of the paper's figures.
func SPEC95() []Profile { return synth.SPEC95 }

// MustProfile returns a suite profile by name, panicking if unknown.
func MustProfile(name string) Profile {
	p, ok := synth.ProfileByName(name)
	if !ok {
		panic(fmt.Sprintf("codecomp: unknown benchmark %q", name))
	}
	return p
}

// GenerateMIPS builds the synthetic MIPS program for a profile.
func GenerateMIPS(p Profile) *MIPSProgram { return synth.GenerateMIPS(p) }

// GenerateX86 builds the synthetic IA-32 program for a profile.
func GenerateX86(p Profile) *X86Program { return synth.GenerateX86(p) }

// TextBase is the virtual address of generated programs' first instruction.
const TextBase = synth.TextBase

// Stream-division machinery re-exports (§3's subdivision search).
type (
	// Division is a partition of instruction bits into streams.
	Division = streams.Division
	// OptimizeOptions configures the stream-assignment search.
	OptimizeOptions = streams.Options
	// OptimizeResult reports the search outcome.
	OptimizeResult = streams.Result
)

// OptimizeDivision runs the greedy + hill-climbing stream assignment search
// over instruction words.
func OptimizeDivision(words []uint64, width, n int, opts OptimizeOptions) OptimizeResult {
	return streams.Optimize(words, width, n, opts)
}

// BitCorrelation computes the |correlation| matrix between instruction bit
// positions (the paper's ρ_ij).
func BitCorrelation(words []uint64, width int) [][]float64 {
	return streams.Correlation(words, width)
}

// Memory-system simulation re-exports (§2's organization).
type (
	// MemConfig describes a simulated I-cache + refill engine.
	MemConfig = memsys.Config
	// MemStats reports a simulation run.
	MemStats = memsys.Stats
	// LAT is the line address table.
	LAT = memsys.LAT
)

// SimulateMemory replays a fetch trace against a memory-system config.
func SimulateMemory(trace []uint32, base uint32, cfg MemConfig) (MemStats, error) {
	return memsys.Simulate(trace, base, cfg)
}

// BuildLAT lays out compressed blocks and returns their address table.
func BuildLAT(blockSizes []int) LAT { return memsys.BuildLAT(blockSizes) }

// Hardware model re-exports (§3 Figure 5, §4 Figure 6).
type (
	// SAMCDecoder models the arithmetic decompression engine.
	SAMCDecoder = hw.SAMCDecoder
	// SADCDecoder models the dictionary decompression engine.
	SADCDecoder = hw.SADCDecoder
	// HWCost is a rough gate budget.
	HWCost = hw.Cost
	// MarkovModel is a frozen SAMC model (exposed for hardware costing).
	MarkovModel = markov.Model
)

// NewSAMCSerialDecoder returns the bit-serial engine of the §3 pseudocode.
func NewSAMCSerialDecoder() SAMCDecoder { return hw.NewSAMCSerial() }

// NewSAMCNibbleDecoder returns the paper's 4-bit parallel engine.
func NewSAMCNibbleDecoder() SAMCDecoder { return hw.NewSAMCNibble() }

// NewSADCTableDecoder returns the parallel table-decoder engine.
func NewSADCTableDecoder() SADCDecoder { return hw.NewSADCTable() }

// Image (de)serialization: each block-addressable format marshals to a ROM
// layout whose per-block offset table doubles as the LAT.

// UnmarshalSAMC reconstructs a SAMC image from its Marshal output.
func UnmarshalSAMC(data []byte) (*SAMCImage, error) { return samc.Unmarshal(data) }

// UnmarshalSADC reconstructs a SADC image (either ISA) from its Marshal
// output.
func UnmarshalSADC(data []byte) (*SADCImage, error) { return sadc.Unmarshal(data) }

// UnmarshalHuffman reconstructs a byte-Huffman image from its Marshal
// output.
func UnmarshalHuffman(data []byte) (*HuffmanImage, error) { return kozuch.Unmarshal(data) }

// UnmarshalRANS reconstructs an interleaved-rANS image from its Marshal
// output.
func UnmarshalRANS(data []byte) (*RANSImage, error) { return rans.Unmarshal(data) }

// UnmarshalTiered reconstructs a mixed-codec tiered image from its Marshal
// output.
func UnmarshalTiered(data []byte) (*TieredImage, error) { return tiering.Unmarshal(data) }

// Serialized-image format names, as reported by DetectFormat.
const (
	FormatSAMC    = "samc"
	FormatSADC    = "sadc"
	FormatHuffman = "huffman"
	FormatRANS    = "rans"
	FormatTiered  = "tiered"
)

// DetectFormat inspects a serialized image's magic and returns its format
// name (FormatSAMC, FormatSADC, FormatHuffman, FormatRANS or FormatTiered),
// or "" if the data does not begin with a known magic. It never inspects
// more than the first 4 bytes.
func DetectFormat(data []byte) string {
	if len(data) < 4 {
		return ""
	}
	switch string(data[:4]) {
	case samc.Magic:
		return FormatSAMC
	case sadc.Magic:
		return FormatSADC
	case kozuch.Magic:
		return FormatHuffman
	case rans.Magic:
		return FormatRANS
	case tiering.Magic:
		return FormatTiered
	}
	return ""
}

// UnmarshalAny reconstructs a block-addressable image of any format,
// auto-detecting SAMC, SADC, byte-Huffman, rANS and tiered ROM images by
// their magic.
// It is the programmatic form of `codecomp -decompress` and the entry point
// the romserver registry uses for uploaded images. Raw LZW/deflate
// containers carry no magic and are not block-addressable, so they are
// rejected here.
func UnmarshalAny(data []byte) (BlockCodec, error) {
	switch DetectFormat(data) {
	case FormatSAMC:
		return samc.Unmarshal(data)
	case FormatSADC:
		return sadc.Unmarshal(data)
	case FormatHuffman:
		return kozuch.Unmarshal(data)
	case FormatRANS:
		return rans.Unmarshal(data)
	case FormatTiered:
		return tiering.Unmarshal(data)
	}
	return nil, fmt.Errorf("codecomp: unrecognized image format (no SAMC/SADC/KZHF/RANS/TIER magic)")
}

// AppendBlock decodes block i of c into dst; see BlockCodec.
func AppendBlock(c BlockCodec, dst []byte, i int) ([]byte, error) { return c.AppendBlock(dst, i) }

// BlockPrefixAppender is the optional sub-block extension of BlockCodec:
// decode only the first n bytes of block i. The paper's block-addressable
// formats encode each block as a self-terminating symbol stream, so a
// decoder that only needs a prefix can stop at the symbol covering the
// requested offset instead of decoding the whole block — the
// decompression-free tail the zero-copy read path exploits for sub-block
// reads. AppendBlockPrefix(dst, i, n) appends exactly
// min(n, len(Block(i))) bytes, bit-identical to the same-length prefix of
// Block(i), and leaves dst's prefix untouched; n <= 0 appends nothing.
// SAMC stops at the word containing the offset, byte-Huffman at the
// symbol, and SADC at the dictionary token (truncating its final unit),
// so the decode work each performs is proportional to the requested
// prefix, not the block size. rANS, tiered images and codec wrappers
// share AppendBlockPrefix's full-decode-and-truncate fallback instead of
// each carrying a copy. It is one of the two optional codec methods,
// with BlockPairAppender.
type BlockPrefixAppender interface {
	AppendBlockPrefix(dst []byte, i, n int) ([]byte, error)
}

// AppendBlockPrefix decodes the first n bytes of block i of any
// BlockCodec into dst. decoded reports how many bytes the codec actually
// had to decode to satisfy the request: the appended length when the
// codec supports native prefix decode, or the full block length when the
// call fell back to a full decode plus truncation (rANS interleaves its
// streams across the whole block and always pays the full decode). The
// serving layer's partial-read accounting is built on this value.
func AppendBlockPrefix(c BlockCodec, dst []byte, i, n int) (out []byte, decoded int, err error) {
	if n <= 0 {
		return dst, 0, nil
	}
	if a, ok := c.(BlockPrefixAppender); ok {
		out, err = a.AppendBlockPrefix(dst, i, n)
		if err != nil {
			return nil, 0, err
		}
		return out, len(out) - len(dst), nil
	}
	base := len(dst)
	out, err = c.AppendBlock(dst, i)
	if err != nil {
		return nil, 0, err
	}
	decoded = len(out) - base
	if base+n < len(out) {
		out = out[:base+n]
	}
	return out, decoded, nil
}

// BlockPairAppender is the optional two-block extension of BlockCodec:
// decode blocks i and i+1 in one call. Blocks decode independently, so
// a codec whose per-block decode is one serial dependency chain can run
// two blocks as two interleaved lanes of one loop, and the processor
// overlaps them. AppendBlockPair(dstA, dstB, i) appends block i to dstA
// and block i+1 to dstB, bit-identical to two AppendBlock calls. Only
// SAMC implements it; every other codec, the tiered image and codec
// wrappers such as the fault injector share AppendBlockPair's
// two-call fallback.
type BlockPairAppender interface {
	AppendBlockPair(dstA, dstB []byte, i int) ([]byte, []byte, error)
}

// AppendBlockPair decodes blocks i and i+1 of any BlockCodec, block i
// into dstA and block i+1 into dstB: through the codec's two-lane
// kernel when it has one, otherwise as two AppendBlock calls.
func AppendBlockPair(c BlockCodec, dstA, dstB []byte, i int) (a, b []byte, err error) {
	if p, ok := c.(BlockPairAppender); ok {
		return p.AppendBlockPair(dstA, dstB, i)
	}
	if a, err = c.AppendBlock(dstA, i); err != nil {
		return nil, nil, err
	}
	if b, err = c.AppendBlock(dstB, i+1); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// Interface conformance checks.
var (
	_ BlockCodec = (*SAMCImage)(nil)
	_ BlockCodec = (*SADCImage)(nil)
	_ BlockCodec = (*HuffmanImage)(nil)
	_ BlockCodec = (*RANSImage)(nil)
	_ BlockCodec = (*TieredImage)(nil)

	// TieredImage deliberately does not implement BlockPrefixAppender: a
	// block's tier (and thus prefix-decode support) can change under a
	// migration, so partial reads fall back to the honest full-decode
	// accounting in AppendBlockPrefix.
	_ BlockPrefixAppender = (*SAMCImage)(nil)
	_ BlockPrefixAppender = (*SADCImage)(nil)
	_ BlockPrefixAppender = (*HuffmanImage)(nil)
	_ BlockPairAppender   = (*SAMCImage)(nil)
)
