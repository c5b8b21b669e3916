package mote

import (
	"encoding/binary"
	"testing"

	"codetomo/internal/isa"
)

// FuzzFastCore decodes arbitrary bytes into a short program plus a
// machine configuration and requires the block core and the reference
// core to stay bit-identical: same error, Stats, registers, memory,
// trace, peripherals, and per-branch ground truth — across a tight
// budget installment (cutting runs mid-flight) and a final large one.
//
// Input layout: 8 header bytes (budget scale, tick divider, RAM size,
// trace cap, predictor kind, reset schedule) followed by 5 bytes per
// instruction (opcode, packed registers, immediate).

const fuzzInstrBytes = 5

// decodeFuzzMachine turns fuzz bytes into a program and two identical
// configs with independent mutable state. ok is false when the input is
// too short to describe a machine.
func decodeFuzzMachine(data []byte) (prog []isa.Instr, cfgF, cfgR Config, budget uint64, ok bool) {
	if len(data) < 8+fuzzInstrBytes {
		return nil, Config{}, Config{}, 0, false
	}
	hdr := data[:8]
	body := data[8:]
	n := len(body) / fuzzInstrBytes
	if n > 64 {
		n = 64
	}
	prog = make([]isa.Instr, n)
	numOps := int(isa.PROFCNT) + 1
	for i := 0; i < n; i++ {
		b := body[i*fuzzInstrBytes:]
		op := isa.Op(int(b[0]) % numOps)
		raw := int32(int16(binary.LittleEndian.Uint16(b[3:5])))
		imm := raw
		switch op {
		case isa.JMP, isa.BZ, isa.BNZ, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.CALL:
			// Mostly in range, slightly out on both sides.
			imm = raw%int32(n+2) - 1
		case isa.LD, isa.ST:
			imm = raw % 96
		case isa.SPADJ:
			imm = raw % 8
		case isa.IN, isa.OUT:
			imm = (raw%8 + 8) % 8
		case isa.TRACE, isa.PROFCNT:
			imm = (raw%4 + 4) % 4
		}
		prog[i] = isa.Instr{
			Op:  op,
			Rd:  isa.Reg(b[1] & 15),
			Ra:  isa.Reg(b[1] >> 4),
			Rb:  isa.Reg(b[2] & 15),
			Imm: imm,
		}
	}
	budget = uint64(hdr[0]) * 16
	var resets []ResetEvent
	at := uint64(0)
	for i := 0; i < int(hdr[5]%3); i++ {
		at += 1 + uint64(hdr[6])*uint64(i+1)
		resets = append(resets, ResetEvent{AtCycle: at, DownCycles: uint64(hdr[7] % 64)})
	}
	var traceMax int
	if hdr[3]%4 == 0 {
		traceMax = 1 + int(hdr[3]%8)
	}
	// The high bits of the predictor byte select a flash page-cross
	// penalty at a tiny page size, so short fuzz programs cross pages.
	cost := isa.DefaultCostModel()
	if pp := (hdr[4] / 5) % 4; pp != 0 {
		cost.PageCrossPenalty = uint32(pp)
		cost.PageSizeBytes = 16
	}
	mk := func() Config {
		cfg := Config{
			RAMWords:         16 + int(hdr[2]%49),
			TickDiv:          1 + int(hdr[1]%8),
			MaxTraceEvents:   traceMax,
			ClockOffsetTicks: uint64(hdr[6]) << 4,
			Resets:           resets,
			Cost:             cost,
			Sensor:           &lcgTestSource{s: uint32(hdr[0]) * 2654435761},
			Entropy:          &lcgTestSource{s: uint32(hdr[2]) * 40503},
		}
		switch hdr[4] % 5 {
		case 0:
			cfg.Predictor = StaticNotTaken{}
		case 1:
			cfg.Predictor = BTFN{}
		case 2:
			cfg.Predictor = NewBimodal(2)
		case 3:
			cfg.Predictor = &parityPredictor{seen: make(map[int32]uint64)}
		case 4:
			cfg.Predictor = oddPC{}
		}
		return cfg
	}
	return prog, mk(), mk(), budget, true
}

// encodeFuzzSeed is the inverse of decodeFuzzMachine's body layout, used
// to build a targeted seed corpus.
func encodeFuzzSeed(hdr [8]byte, prog []isa.Instr) []byte {
	out := append([]byte{}, hdr[:]...)
	for _, in := range prog {
		var b [fuzzInstrBytes]byte
		b[0] = byte(in.Op)
		b[1] = byte(in.Rd&15) | byte(in.Ra&15)<<4
		b[2] = byte(in.Rb & 15)
		binary.LittleEndian.PutUint16(b[3:5], uint16(int16(in.Imm)))
		out = append(out, b[:]...)
	}
	return out
}

func FuzzFastCore(f *testing.F) {
	// Branch-heavy loop with a counter (covers taken/not-taken mixes and
	// the budget boundary inside a hot loop).
	f.Add(encodeFuzzSeed([8]byte{40, 3, 10, 1, 1, 0, 0, 0}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 20},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.XORI, Rd: 2, Ra: 2, Imm: 1},
		{Op: isa.BNZ, Ra: 2, Imm: 1},
		{Op: isa.BNZ, Ra: 1, Imm: 1},
		{Op: isa.HALT},
	}))
	// Faults and resets: memory fault after a reset schedule fires.
	f.Add(encodeFuzzSeed([8]byte{200, 1, 4, 2, 0, 2, 30, 9}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 100},
		{Op: isa.ST, Ra: 1, Rb: 2, Imm: 50},
		{Op: isa.JMP, Imm: 0},
	}))
	// Trace records against a tiny trace cap (overflow), timer reads.
	f.Add(encodeFuzzSeed([8]byte{100, 2, 8, 4, 2, 0, 5, 0}, []isa.Instr{
		{Op: isa.IN, Rd: 3, Imm: isa.PortTimer},
		{Op: isa.TRACE, Imm: 1},
		{Op: isa.TRACE, Imm: 2},
		{Op: isa.JMP, Imm: 0},
	}))
	// Stack ops: call/ret, push/pop, stack faults via SPADJ.
	f.Add(encodeFuzzSeed([8]byte{80, 4, 2, 1, 3, 1, 11, 3}, []isa.Instr{
		{Op: isa.CALL, Imm: 3},
		{Op: isa.PUSH, Ra: 1},
		{Op: isa.HALT},
		{Op: isa.GETSP, Rd: 4},
		{Op: isa.SPADJ, Imm: -4},
		{Op: isa.POP, Rd: 5},
		{Op: isa.RET},
	}))
	// Page-cross penalty active (hdr[4]=6: BTFN, penalty 1 at 16-byte
	// pages): a backward loop branch that straddles a page boundary.
	f.Add(encodeFuzzSeed([8]byte{60, 2, 12, 1, 6, 0, 0, 0}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 6},
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 3},
		{Op: isa.XORI, Rd: 2, Ra: 2, Imm: 5},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 1},
		{Op: isa.JMP, Imm: 7},
		{Op: isa.NOP},
		{Op: isa.HALT},
	}))
	// Division fault plus radio/debug output.
	f.Add(encodeFuzzSeed([8]byte{60, 1, 16, 3, 4, 0, 0, 0}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 7},
		{Op: isa.OUT, Ra: 1, Imm: isa.PortRadioData},
		{Op: isa.OUT, Ra: 1, Imm: isa.PortRadioCtl},
		{Op: isa.OUT, Ra: 1, Imm: isa.PortDebug},
		{Op: isa.DIV, Rd: 2, Ra: 1, Rb: 3},
		{Op: isa.HALT},
	}))
	// The block core's fused frame idioms, mid-block, each faulting on
	// every sub-instruction in turn: 16 words of RAM (hdr[2]=0) put
	// [r15+90] out of range, and the untouched word at [r15+5] makes the
	// loaded divisor 0. The prologue makes the loaded x and the old y
	// nonzero, so a register write the fused form skips before a fault
	// shows. Random programs almost never form these register patterns.
	frame := []isa.Instr{
		{Op: isa.LD, Rd: 1, Ra: 15, Imm: 3},
		{Op: isa.LD, Rd: 2, Ra: 15, Imm: 5},
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.ST, Ra: 15, Rb: 1, Imm: 7},
	}
	idioms := [][]isa.Instr{
		frame, // binop, no fault
		{{Op: isa.LDI, Rd: 1, Imm: 9}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 4}},         // const
		{{Op: isa.LDI, Rd: 1, Imm: 9}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 90}},        // const, st faults
		{{Op: isa.LD, Rd: 1, Ra: 15, Imm: 90}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 4}}, // copy, ld faults
		{{Op: isa.LD, Rd: 1, Ra: 15, Imm: 3}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 90}}, // copy, st faults
	}
	for sub := range frame {
		faulting := append([]isa.Instr(nil), frame...)
		if frame[sub].Op == isa.ADD {
			faulting[sub].Op = isa.DIV
		} else {
			faulting[sub].Imm = 90
		}
		idioms = append(idioms, faulting)
	}
	for _, idiom := range idioms {
		prog := append([]isa.Instr{
			{Op: isa.LDI, Rd: 3, Imm: 5},
			{Op: isa.ST, Ra: 15, Rb: 3, Imm: 3},
			{Op: isa.LDI, Rd: 2, Imm: 6},
		}, idiom...)
		prog = append(prog, isa.Instr{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 1}, isa.Instr{Op: isa.HALT})
		f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, 0, 0, 0, 0}, prog))
	}
	// A timer read and a TRACE mid-block in a loop, under a first
	// installment that stops inside it.
	f.Add(encodeFuzzSeed([8]byte{3, 2, 8, 1, 0, 0, 7, 0}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 7},
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 1},
		{Op: isa.IN, Rd: 3, Imm: isa.PortTimer},
		{Op: isa.TRACE, Imm: 0},
		{Op: isa.ST, Ra: 15, Rb: 3, Imm: 2},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 1},
		{Op: isa.HALT},
	}))
	// A trace overflow mid-block (hdr[3]=0: a one-event trace buffer).
	f.Add(encodeFuzzSeed([8]byte{200, 1, 8, 0, 0, 0, 0, 0}, []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 2},
		{Op: isa.TRACE, Imm: 1},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.TRACE, Imm: 2},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.JMP, Imm: 0},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, cfgF, cfgR, budget, ok := decodeFuzzMachine(data)
		if !ok {
			return
		}
		fused := New(prog, cfgF)
		ref := New(prog, cfgR)
		for k, b := range []uint64{budget, 20000} {
			errF := fused.Run(b)
			errR := ref.RunReference(b)
			compareState(t, "installment "+string(rune('0'+k)), fused, ref, errF, errR)
		}
	})
}
