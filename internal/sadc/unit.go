// Package sadc implements SADC — Semiadaptive Dictionary Compression — the
// paper's ISA-dependent code compressor (§4).
//
// Instructions are split into ISA-specific streams (MIPS: opcode, register,
// 16-bit immediate, 26-bit long immediate; x86: opcode, ModR/M+SIB,
// immediate+displacement). A semiadaptive dictionary of up to 256 entries is
// grown iteratively: each cycle the generator counts adjacent token pairs
// and triples and frequent opcode+register / opcode+immediate combinations,
// inserts the candidate with the greatest gain, re-parses the program, and
// stops when the dictionary is full or the encoding stops shrinking. All
// resulting streams are then Huffman coded. Dictionary entries never span
// cache-block boundaries and every stream's bit position resets per block,
// so single blocks decompress independently.
package sadc

import (
	"bytes"
	"fmt"
)

// Stream identifies one of SADC's operand streams.
type Stream int

const (
	StreamRegs Stream = iota // register / ModR/M+SIB bytes
	StreamImm                // (short) immediate / imm+disp bytes
	StreamLimm               // long immediate bytes (MIPS 26-bit targets)
	numOperandStreams
)

// Unit is one instruction viewed through SADC's stream split: an opcode
// symbol plus its per-stream operand bytes. Size is the instruction's
// original encoded length, used for cache-block packing.
type Unit struct {
	Op   uint16
	Regs []byte
	Imm  []byte
	Limm []byte
	Size int
}

func (u *Unit) stream(s Stream) []byte {
	switch s {
	case StreamRegs:
		return u.Regs
	case StreamImm:
		return u.Imm
	default:
		return u.Limm
	}
}

func (u *Unit) setStream(s Stream, b []byte) {
	switch s {
	case StreamRegs:
		u.Regs = b
	case StreamImm:
		u.Imm = b
	default:
		u.Limm = b
	}
}

// Item is one instruction slot of a dictionary entry: an opcode plus,
// optionally, fused operand bytes. A nil fused slice means the operand
// comes from the corresponding stream at decode time; a non-nil slice is
// baked into the dictionary (the paper's "new special opcode for jr R31").
type Item struct {
	Op   uint16
	Regs []byte
	Imm  []byte
	Limm []byte
}

func (it *Item) fused(s Stream) []byte {
	switch s {
	case StreamRegs:
		return it.Regs
	case StreamImm:
		return it.Imm
	default:
		return it.Limm
	}
}

// matches reports whether the item matches a concrete unit: the opcode must
// agree and every fused operand must equal the unit's value.
func (it *Item) matches(u *Unit) bool {
	if it.Op != u.Op {
		return false
	}
	for s := Stream(0); s < numOperandStreams; s++ {
		if f := it.fused(s); f != nil && !bytes.Equal(f, u.stream(s)) {
			return false
		}
	}
	return true
}

// Entry is a dictionary entry: a sequence of items replaced by one token.
type Entry struct {
	Items []Item
}

// storageBytes is the entry's cost in the stored dictionary: one opcode
// byte per item plus any fused operand bytes (the paper's "it will consume
// n bytes of space").
func (e *Entry) storageBytes() int {
	n := 0
	for i := range e.Items {
		n++
		n += len(e.Items[i].Regs) + len(e.Items[i].Imm) + len(e.Items[i].Limm)
	}
	return n
}

// less orders entries by item count, then item by item on opcode and
// fused operand bytes; it breaks ties between equal-gain candidates.
func (e *Entry) less(o *Entry) bool {
	if len(e.Items) != len(o.Items) {
		return len(e.Items) < len(o.Items)
	}
	for i := range e.Items {
		a, b := &e.Items[i], &o.Items[i]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		for s := Stream(0); s < numOperandStreams; s++ {
			if c := bytes.Compare(a.fused(s), b.fused(s)); c != 0 {
				return c < 0
			}
		}
	}
	return false
}

// Adapter bridges an ISA to SADC's Unit form.
type Adapter interface {
	// ToUnits splits a program text into units.
	ToUnits(text []byte) ([]Unit, error)
	// FromUnits re-encodes units into program text.
	FromUnits(units []Unit) ([]byte, error)
	// ReadOperands reconstructs one unit's operand bytes by pulling from
	// the decode-side streams via take; take must be called for every
	// operand byte the opcode implies, in stream order, exactly as the
	// paper's control-logic unit drives the per-stream table decoders.
	ReadOperands(op uint16, take func(s Stream, n int) ([]byte, error)) (Unit, error)
	// NumOps returns the opcode symbol count (≤ 256 for the token space).
	NumOps() int
	// AuxBytes is extra decoder-side table storage the adapter needs
	// (e.g. the x86 opcode-byte table), counted into the dictionary cost.
	AuxBytes() int
	// Tag identifies the adapter in serialized images (0 = MIPS, 1 = x86).
	Tag() byte
	// MarshalAux serializes the adapter's per-program state; the x86
	// adapter stores its opcode-byte table, MIPS needs nothing.
	MarshalAux() []byte
}

// appendAdapter is the optional fast-path extension of Adapter: re-encode
// units directly into a caller-supplied buffer. Both built-in adapters
// implement it; AppendBlock falls back to FromUnits plus a copy otherwise.
type appendAdapter interface {
	AppendUnits(dst []byte, units []Unit) ([]byte, error)
}

var (
	_ appendAdapter = MIPSAdapter{}
	_ appendAdapter = (*X86Adapter)(nil)
)

// errShort is returned by stream readers on underflow.
var errShort = fmt.Errorf("sadc: operand stream underflow")
