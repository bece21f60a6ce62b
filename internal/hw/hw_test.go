package hw

import (
	"testing"

	"codecomp/internal/markov"
)

func testModel(t *testing.T, connected bool) *markov.Model {
	t.Helper()
	tr, err := markov.NewTrainer(markov.Spec{Widths: []int{8, 8, 8, 8}, Connected: connected})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000/32; i++ {
		tr.AddWord(0x55555555)
	}
	return tr.Finalize(false)
}

func TestSAMCCycles(t *testing.T) {
	serial := NewSAMCSerial()
	nibble := NewSAMCNibble()
	// A 32-byte block is 256 bits.
	if got := serial.CyclesPerBlock(32); got != 4+256 {
		t.Fatalf("serial cycles = %d", got)
	}
	if got := nibble.CyclesPerBlock(32); got != 6+64 {
		t.Fatalf("nibble cycles = %d", got)
	}
	// The parallel engine must be meaningfully faster.
	if nibble.CyclesPerBlock(32)*3 > serial.CyclesPerBlock(32) {
		t.Fatal("nibble design should be ~4x faster than serial")
	}
}

func TestSAMCCost(t *testing.T) {
	m := testModel(t, false)
	nibble := NewSAMCNibble()
	c := nibble.Cost(m)
	// Paper Figure 5: 15 midpoint units and 15 comparators for 4-bit decode.
	if c.Adders != 15 || c.Comparators != 15 {
		t.Fatalf("nibble cost: %d adders, %d comparators, want 15 each", c.Adders, c.Comparators)
	}
	if c.MemBits != m.StorageBits() {
		t.Fatal("probability memory must equal model storage")
	}
	if c.GateEq <= 0 {
		t.Fatal("gate estimate must be positive")
	}
	serial := NewSAMCSerial()
	if sc := serial.Cost(m); sc.GateEq >= c.GateEq {
		t.Fatal("serial engine must be smaller than the nibble engine")
	}
	// Connected trees double the probability memory.
	mc := testModel(t, true)
	if cc := nibble.Cost(mc); cc.MemBits != 2*c.MemBits {
		t.Fatalf("connected model memory = %d, want %d", cc.MemBits, 2*c.MemBits)
	}
}

func TestSADCCycles(t *testing.T) {
	tbl := NewSADCTable()
	// 32-byte MIPS block = 8 instructions.
	if got := tbl.CyclesPerBlock(32, 8, 180); got != 2+8 {
		t.Fatalf("table cycles = %d", got)
	}
	serial := NewSADCSerial()
	if got := serial.CyclesPerBlock(32, 8, 180); got != 2+8+180 {
		t.Fatalf("serial cycles = %d", got)
	}
	if tbl.CyclesPerBlock(32, 8, 180) >= serial.CyclesPerBlock(32, 8, 180) {
		t.Fatal("table decoder must beat serial decoder")
	}
}

func TestSADCCost(t *testing.T) {
	c := NewSADCTable().Cost(700, 512)
	if c.MemBits != 8*(700+512) {
		t.Fatalf("MemBits = %d", c.MemBits)
	}
	if c.GateEq <= 0 {
		t.Fatal("gate estimate must be positive")
	}
}

func TestSADCVsSAMCLatency(t *testing.T) {
	// §6: SADC "allows for fast hardware implementations" — the table
	// decoder must decompress a block in far fewer cycles than even the
	// nibble-parallel SAMC engine.
	samc := NewSAMCNibble().CyclesPerBlock(32)
	sadc := NewSADCTable().CyclesPerBlock(32, 8, 180)
	if sadc*3 > samc {
		t.Fatalf("SADC %d cycles vs SAMC %d: dictionary speed advantage missing", sadc, samc)
	}
}
