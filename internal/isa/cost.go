package isa

// CostModel gives per-opcode base cycle counts and encoded sizes in bytes.
// Both the simulator and the compiler's static timing model consult this
// table, which is what lets Code Tomography predict end-to-end durations
// from the program text alone.
//
// Conditional branches have an asymmetric cost handled outside this table:
// the base cost below is the not-redirecting cost; a taken conditional
// branch (pipeline redirect) additionally pays TakenPenalty when the static
// predictor guessed wrong (see package mote).
type CostModel struct {
	Cycles [numOps]uint32
	Bytes  [numOps]uint32
	// TakenPenalty is the pipeline-flush penalty, in cycles, paid by a
	// conditional branch whose outcome the static predictor mispredicted.
	TakenPenalty uint32
	// PageSizeBytes is the size of one flash page (the instruction-fetch
	// buffer granule). PageCrossPenalty is the refill stall, in cycles,
	// paid when a control-flow redirect — an executed JMP or a *taken*
	// conditional branch — lands on a different flash page than the
	// transfer instruction itself. Sequential fetch is free (the buffer is
	// refilled ahead of the fetch stream), and CALL/RET are exempt: a
	// return's page locality depends on the call site, not the callee, so
	// charging it would make a block's cost depend on its caller and break
	// the per-edge determinism the timing model relies on. A zero penalty
	// (the default) disables the whole mechanism bit-for-bit.
	PageSizeBytes    uint32
	PageCrossPenalty uint32
}

// DefaultCostModel returns the cost table used throughout the evaluation.
// The values follow low-end in-order MCUs: single-cycle ALU, two-cycle
// memory, multi-cycle multiply/divide, and multi-cycle control transfers.
func DefaultCostModel() *CostModel {
	m := &CostModel{TakenPenalty: 2, PageSizeBytes: 256}
	for op := Op(0); op < numOps; op++ {
		m.Cycles[op] = 1
		m.Bytes[op] = 2
	}
	set := func(op Op, cyc, bytes uint32) {
		m.Cycles[op] = cyc
		m.Bytes[op] = bytes
	}
	set(LDI, 1, 4)
	set(ADDI, 1, 4)
	set(XORI, 1, 4)
	set(MUL, 2, 2)
	set(DIV, 8, 2)
	set(MOD, 8, 2)
	set(LD, 2, 4)
	set(ST, 2, 4)
	set(PUSH, 2, 2)
	set(POP, 2, 2)
	set(SPADJ, 1, 4)
	set(JMP, 2, 4)
	set(BZ, 1, 4)
	set(BNZ, 1, 4)
	set(BEQ, 1, 4)
	set(BNE, 1, 4)
	set(BLT, 1, 4)
	set(BGE, 1, 4)
	set(CALL, 4, 4)
	set(RET, 4, 2)
	set(IN, 1, 4)
	set(OUT, 1, 4)
	// TRACE stands for: read 16-bit timer + store (id, ts) into a RAM ring
	// buffer. PROFCNT stands for: load counter, increment, store.
	set(TRACE, 5, 4)
	set(PROFCNT, 4, 4)
	m.Cycles[HALT] = 1
	return m
}

// InstrBytes returns the encoded size of one instruction in bytes.
func (m *CostModel) InstrBytes(i Instr) uint32 { return m.Bytes[i.Op] }

// CodeBytes returns the total encoded size of a code sequence.
func (m *CostModel) CodeBytes(code []Instr) uint32 {
	var n uint32
	for _, in := range code {
		n += m.InstrBytes(in)
	}
	return n
}

// ByteOffsets returns the flash byte offset of every instruction plus a
// final entry one past the last byte (len(code)+1 entries): the prefix
// sums of the per-instruction encodings. Both the simulator's page table
// and the compiler's page-crossing analysis are derived from it.
func (m *CostModel) ByteOffsets(code []Instr) []uint32 {
	off := make([]uint32, len(code)+1)
	var n uint32
	for i, in := range code {
		off[i] = n
		n += m.InstrBytes(in)
	}
	off[len(code)] = n
	return off
}

// PageTable returns each instruction's flash page index (byte offset /
// PageSizeBytes), or nil when the model has no page penalty configured —
// the signal both interpreter cores use to skip the page check entirely.
func (m *CostModel) PageTable(code []Instr) []uint32 {
	if m.PageCrossPenalty == 0 || m.PageSizeBytes == 0 {
		return nil
	}
	off := m.ByteOffsets(code)
	pages := make([]uint32, len(code))
	for i := range pages {
		pages[i] = off[i] / m.PageSizeBytes
	}
	return pages
}

// Port numbers of the mote's peripherals (for IN/OUT).
const (
	PortTimer     = 0 // IN: current timer tick (cycles / TickDiv)
	PortADC       = 1 // IN: next sensor reading from the workload source
	PortRNG       = 2 // IN: pseudo-random 16-bit value from the entropy source
	PortLED       = 3 // OUT: LED state bits
	PortRadioData = 4 // OUT: append a word to the radio TX buffer
	PortRadioCtl  = 5 // OUT: 1 = transmit buffered packet; IN: last TX status
	PortDebug     = 6 // OUT: append a word to the debug capture (tests use this)
)
