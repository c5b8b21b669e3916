package mote

import (
	"encoding/binary"
	"errors"
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
	// The second wave's kinds, mid-block, each faulting in turn at every
	// sub-instruction that can fault, on the same prologue and RAM. A
	// forwarded load cannot fault: its slot moves out of range together
	// with the store it reads back, which faults first. A DIV faults on a
	// zero constant operand, or on the untouched word at [r15+5]. Every
	// variant must still decode as its kind, so each seed runs the fused
	// form rather than the instructions one by one.
	for _, w := range secondWaveSeeds(f) {
		f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, w.hdr4, 0, 0, 0}, w.prog))
	}
	// The call and return kinds, the port kinds and the threaded call,
	// each plain and faulting at every sub-instruction that can.
	for _, c := range callSeeds(f) {
		f.Add(encodeFuzzSeed(c.hdr, c.prog))
	}
	// Every operator through the fused ALU switch, with x and the constant
	// operand each positive or negative and once equal, so signed and
	// unsigned, arithmetic and logical, strict and non-strict variants
	// all differ.
	for op := isa.ADD; op <= isa.SEQ; op++ {
		for _, xk := range [][2]int32{{5, 5}, {5, -3}, {-7, 3}, {-7, -3}} {
			x, konst := xk[0], xk[1]
			expr := []isa.Instr{
				{Op: isa.LDI, Rd: 3, Imm: x}, {Op: isa.ST, Ra: 15, Rb: 3, Imm: 3},
				{Op: isa.LDI, Rd: 1, Imm: konst}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 4},
				{Op: isa.LD, Rd: 1, Ra: 15, Imm: 3}, {Op: isa.LD, Rd: 2, Ra: 15, Imm: 4},
				{Op: op, Rd: 1, Ra: 1, Rb: 2}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 7},
				{Op: isa.HALT},
			}
			if seedKind([8]byte{}, expr, 2) == opExpr {
				f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, 0, 0, 0, 0}, expr))
			}
			if op == isa.SLT { // the swapped compare, slt x,y,x
				expr[6].Ra, expr[6].Rb = 2, 1
				requireKind(f, [8]byte{}, expr, 6, opSgt)
				f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, 0, 0, 0, 0}, expr))
			}
		}
	}
	// A jump into a fused binop's swapped compare runs it as a plain SLT.
	intoSgt := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: -4}, {Op: isa.LDI, Rd: 2, Imm: 6}, {Op: isa.JMP, Imm: fuzzTarget(5)},
		{Op: isa.LD, Rd: 1, Ra: 15, Imm: 3}, {Op: isa.LD, Rd: 2, Ra: 15, Imm: 4},
		{Op: isa.SLT, Rd: 1, Ra: 2, Rb: 1}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 7}, {Op: isa.HALT},
	}
	requireKind(f, [8]byte{}, intoSgt, 5, opSgt)
	f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, 0, 0, 0, 0}, intoSgt))
	// A near miss: the constant overwrites the copied slot before the
	// binop reads it back, so the copy must not fuse into the expr (the
	// forwarded x would be stale).
	overwrite := []isa.Instr{
		{Op: isa.LDI, Rd: 3, Imm: 5}, {Op: isa.ST, Ra: 15, Rb: 3, Imm: 3},
		{Op: isa.LD, Rd: 1, Ra: 15, Imm: 3}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 6},
		{Op: isa.LDI, Rd: 1, Imm: 9}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 6},
		{Op: isa.LD, Rd: 1, Ra: 15, Imm: 6}, {Op: isa.LD, Rd: 2, Ra: 15, Imm: 6},
		{Op: isa.SUB, Rd: 1, Ra: 1, Rb: 2}, {Op: isa.ST, Ra: 15, Rb: 1, Imm: 7},
		{Op: isa.HALT},
	}
	requireKind(f, [8]byte{}, overwrite, 4, opExpr)
	f.Add(encodeFuzzSeed([8]byte{200, 0, 0, 1, 0, 0, 0, 0}, overwrite))
	// A threaded JMP whose target faults, with and without a page-cross
	// penalty (hdr[4]=5: penalty 1 at 16-byte pages, which the nine NOPs
	// jumped over cross): the fault exit must leave the jump's cycles and
	// crossing counted and nothing after the fault.
	jumpFault := []isa.Instr{{Op: isa.LDI, Rd: 3, Imm: 5}, {Op: isa.JMP, Imm: fuzzTarget(11)}}
	for range 9 {
		jumpFault = append(jumpFault, isa.Instr{Op: isa.NOP})
	}
	jumpFault = append(jumpFault, isa.Instr{Op: isa.ST, Ra: 15, Rb: 3, Imm: 90}, isa.Instr{Op: isa.HALT})
	for _, hk := range []struct {
		hdr4 byte
		kind isa.Op
	}{{0, opJmp}, {5, opJmpX}} {
		hdr := [8]byte{200, 0, 0, 1, hk.hdr4, 0, 0, 0}
		requireKind(f, hdr, jumpFault, 1, hk.kind)
		f.Add(encodeFuzzSeed(hdr, jumpFault))
	}
	// A budget stop just after a threaded JMP: the first installment ends
	// on the cycle the jump completes, so the block core steps through the
	// chain and must stop at the jump's target, with and without a page
	// crossing.
	for _, hdr4 := range []byte{0, 5} {
		hdr, prog := budgetAfterJump(f, hdr4)
		f.Add(encodeFuzzSeed(hdr, prog))
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

// A waveSeed is one second-wave idiom program and the predictor byte
// (hdr[4]) it runs under.
type waveSeed struct {
	prog []isa.Instr
	hdr4 byte
}

// secondWaveSeeds builds every second-wave kind on r15's frame, plain and
// faulting at each sub-instruction that can, between the frame-idiom
// seeds' prologue and epilogue. The copy tail also runs a threaded JMP.
func secondWaveSeeds(f *testing.F) []waveSeed {
	ld := func(rd isa.Reg, off int32) isa.Instr { return isa.Instr{Op: isa.LD, Rd: rd, Ra: 15, Imm: off} }
	st := func(rb isa.Reg, off int32) isa.Instr { return isa.Instr{Op: isa.ST, Ra: 15, Rb: rb, Imm: off} }
	add := isa.Instr{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2}
	cat := func(parts ...[]isa.Instr) []isa.Instr {
		var out []isa.Instr
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	binop := []isa.Instr{ld(1, 3), ld(2, 5), add, st(1, 7)}
	konst := []isa.Instr{{Op: isa.LDI, Rd: 1, Imm: 9}, st(1, 4)}
	expr := cat(konst, []isa.Instr{ld(1, 3), ld(2, 4), add, st(1, 7)})
	copyExpr := cat([]isa.Instr{ld(1, 3), st(1, 6)}, konst, []isa.Instr{ld(1, 6), ld(2, 4), add, st(1, 7)})
	brTail := []isa.Instr{ld(3, 7), {Op: isa.BNZ, Ra: 3}}
	cpTail := []isa.Instr{ld(3, 7), st(3, 8), {Op: isa.JMP}, {Op: isa.NOP}}
	kinds := []struct {
		seq  []isa.Instr
		kind isa.Op
	}{
		{expr, opExpr},
		{copyExpr, opCopyExpr},
		{cat(binop, brTail), opBinopBr},
		{cat(expr, brTail), opExprBr},
		{cat(copyExpr, brTail), opCopyExprBr},
		{cat(binop, cpTail), opBinopCp},
		{cat(expr, cpTail), opExprCp},
		{cat(copyExpr, cpTail), opCopyExprCp},
		{[]isa.Instr{ld(1, 3), {Op: isa.BZ, Ra: 1}}, opLdBr},
	}
	prologue := []isa.Instr{
		{Op: isa.LDI, Rd: 3, Imm: 5},
		{Op: isa.ST, Ra: 15, Rb: 3, Imm: 3},
		{Op: isa.LDI, Rd: 2, Imm: 6},
	}
	var out []waveSeed
	for _, k := range kinds {
		// Branches and the tail's jump land on the epilogue.
		end := int32(len(prologue) + len(k.seq))
		for i := range k.seq {
			if op := k.seq[i].Op; op == isa.BZ || op == isa.BNZ || op == isa.JMP {
				k.seq[i].Imm = fuzzTarget(end)
			}
		}
		variants := [][]isa.Instr{k.seq}
		for i, in := range k.seq {
			v := append([]isa.Instr(nil), k.seq...)
			switch in.Op {
			case isa.LD, isa.ST:
				for j := i; j < len(v); j++ {
					if (v[j].Op == isa.LD || v[j].Op == isa.ST) && v[j].Imm == in.Imm {
						v[j].Imm = 90
					}
				}
			case isa.ADD:
				v[i].Op = isa.DIV
				for j := range v {
					if v[j].Op == isa.LDI {
						v[j].Imm = 0
					}
				}
			default:
				continue
			}
			variants = append(variants, v)
		}
		for _, v := range variants {
			prog := cat(prologue, v, []isa.Instr{{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 1}, {Op: isa.HALT}})
			if seedKind([8]byte{}, prog, len(prologue)) != k.kind {
				continue // a forwarded load moved off its slot: no longer this kind
			}
			out = append(out, waveSeed{prog, 0}, waveSeed{prog, 5})
		}
	}
	return out
}

// fuzzTarget is the encoded immediate that decodeFuzzMachine turns into
// branch target pc (for targets inside a program of at least pc
// instructions).
func fuzzTarget(pc int32) int32 { return pc + 1 }

// seedKind is the dispatch kind at pc of prog once encoded as a seed
// under header hdr and decoded back, under the seed's cost model.
func seedKind(hdr [8]byte, prog []isa.Instr, pc int) isa.Op {
	p, cfg, _, _, _ := decodeFuzzMachine(encodeFuzzSeed(hdr, prog))
	return decodeBlocks(p, cfg.Cost).dec[pc].Op
}

// requireKind fails the fuzz setup unless prog decodes kind at pc under
// header hdr.
func requireKind(f *testing.F, hdr [8]byte, prog []isa.Instr, pc int, kind isa.Op) {
	f.Helper()
	if got := seedKind(hdr, prog, pc); got != kind {
		f.Fatalf("seed decodes %s at pc %d, want %s", kindName(got), pc, kindName(kind))
	}
}

// budgetAfterJump returns a counted loop whose body runs a threaded JMP
// over nine NOPs, after pad NOPs chosen so that a first installment (a
// multiple of 16 cycles, in the returned seed header under predictor
// byte hdr4) stops the reference core at the jump's target, which only
// the jump reaches.
func budgetAfterJump(f *testing.F, hdr4 byte) ([8]byte, []isa.Instr) {
	f.Helper()
	for pad := int32(0); pad < 16; pad++ {
		var prog []isa.Instr
		for range pad {
			prog = append(prog, isa.Instr{Op: isa.NOP})
		}
		loop, target := pad+1, pad+12
		prog = append(prog, isa.Instr{Op: isa.LDI, Rd: 1, Imm: 40},
			isa.Instr{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
			isa.Instr{Op: isa.JMP, Imm: fuzzTarget(target)})
		for range 9 {
			prog = append(prog, isa.Instr{Op: isa.NOP})
		}
		prog = append(prog, isa.Instr{Op: isa.BNZ, Ra: 1, Imm: fuzzTarget(loop)}, isa.Instr{Op: isa.HALT})
		requireKind(f, [8]byte{}, prog, int(pad)+2, opJmp)
		for b := 1; b < 256; b++ {
			hdr := [8]byte{byte(b), 0, 16, 1, hdr4, 0, 0, 0}
			p, _, cfg, budget, _ := decodeFuzzMachine(encodeFuzzSeed(hdr, prog))
			m := New(p, cfg)
			if err := m.RunReference(budget); errors.Is(err, ErrCycleBudget) && m.PC() == target {
				return hdr, prog
			}
		}
	}
	f.Fatal("no budget stops right after the jump")
	return [8]byte{}, nil
}

// A callSeed is one call-or-return kind program and its seed header.
type callSeed struct {
	hdr  [8]byte
	prog []isa.Instr
}

// callSeeds builds every entry, return and port kind and a threaded call,
// mid-block, plain and faulting in turn at each sub-instruction that can,
// on 16 words of RAM (sp starts at 16) and a timer divided by 3, so a
// trace logged at the wrong cycle shows. A prologue moves sp (SPADJ
// immediates decode to at most 7 words) to where the sub-instruction
// under test faults: a push at sp 0, an entry's frame below 0, a return's
// SPADJ past the top, and a pop or ret at the top. A trace faults under a
// one-event buffer that the prologue's own TRACE fills. The return lands
// on the epilogue, whose pc the prologue pushes; a threaded call enters a
// timestamped callee after the epilogue.
func callSeeds(f *testing.F) []callSeed {
	f.Helper()
	in := func(op isa.Op, rd, ra isa.Reg, imm int32) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Ra: ra, Imm: imm}
	}
	spadj := func(n int32) (out []isa.Instr) {
		for ; n != 0; n -= max(min(n, 7), -7) {
			out = append(out, in(isa.SPADJ, 0, 0, max(min(n, 7), -7)))
		}
		return out
	}
	cat := func(parts ...[]isa.Instr) []isa.Instr {
		var out []isa.Instr
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	trace := []isa.Instr{in(isa.TRACE, 0, 0, 2)}
	enter := []isa.Instr{in(isa.PUSH, 0, 15, 0), in(isa.GETSP, 15, 0, 0), in(isa.SPADJ, 0, 0, -3)}
	leave := func(n int32) []isa.Instr {
		return []isa.Instr{in(isa.SPADJ, 0, 0, n), in(isa.POP, 15, 0, 0), in(isa.RET, 0, 0, 0)}
	}
	ld := []isa.Instr{in(isa.LD, 0, 15, 3)}
	ldFault := []isa.Instr{in(isa.LD, 0, 15, 90)}
	full := []isa.Instr{in(isa.TRACE, 0, 0, 1)} // fills a one-event buffer
	// retTo pushes a return address (patched to the epilogue) and a frame
	// pointer, so a leave's pop and ret find them.
	retTo := []isa.Instr{in(isa.LDI, 3, 0, -1), in(isa.PUSH, 0, 3, 0), in(isa.LDI, 4, 0, 9), in(isa.PUSH, 0, 4, 0)}
	cases := []struct {
		pro, seq []isa.Instr
		kind     isa.Op
		cap1     bool // a one-event trace buffer
	}{
		{nil, enter, opEnter, false},
		{spadj(-16), enter, opEnter, false},                       // push at sp 0
		{spadj(-13), enter, opEnter, false},                       // frame below 0
		{nil, cat(trace, enter), opTrEnter, false},                //
		{full, cat(trace, enter), opTrEnter, true},                // trace overflow
		{spadj(-16), cat(trace, enter), opTrEnter, false},         // push at sp 0
		{spadj(-13), cat(trace, enter), opTrEnter, false},         // frame below 0
		{retTo, leave(0), opLeave, false},                         //
		{nil, leave(1), opLeave, false},                           // SPADJ past the top
		{nil, leave(0), opLeave, false},                           // pop at the top
		{spadj(-1), leave(0), opLeave, false},                     // ret at the top
		{retTo, cat(trace, leave(0)), opTrLeave, false},           //
		{cat(full, retTo), cat(trace, leave(0)), opTrLeave, true}, // trace overflow
		{nil, cat(trace, leave(1)), opTrLeave, false},
		{nil, cat(trace, leave(0)), opTrLeave, false},
		{spadj(-1), cat(trace, leave(0)), opTrLeave, false},
		{retTo, cat(ld, trace, leave(0)), opLdTrLeave, false},
		{retTo, cat(ldFault, trace, leave(0)), opLdTrLeave, false}, // load out of range
		{cat(full, retTo), cat(ld, trace, leave(0)), opLdTrLeave, true},
		{nil, cat(ld, trace, leave(1)), opLdTrLeave, false},
		{nil, cat(ld, trace, leave(0)), opLdTrLeave, false},
		{spadj(-1), cat(ld, trace, leave(0)), opLdTrLeave, false},
		{nil, []isa.Instr{in(isa.LD, 1, 15, 3), in(isa.OUT, 0, 1, isa.PortDebug)}, opLdOut, false},
		{nil, []isa.Instr{in(isa.LD, 1, 15, 90), in(isa.OUT, 0, 1, isa.PortDebug)}, opLdOut, false},
		{nil, []isa.Instr{in(isa.LDI, 1, 0, 7), in(isa.OUT, 0, 1, isa.PortDebug)}, opConstOut, false},
		{nil, []isa.Instr{in(isa.CALL, 0, 0, -1)}, opCall, false},        // enters the callee
		{spadj(-16), []isa.Instr{in(isa.CALL, 0, 0, -1)}, opCall, false}, // push at sp 0
	}
	var out []callSeed
	for _, c := range cases {
		// The prologue stores 5 at [r15+3] (r15 = 0) for the loads.
		pro := cat([]isa.Instr{in(isa.LDI, 3, 0, 5), {Op: isa.ST, Ra: 15, Rb: 3, Imm: 3}}, c.pro)
		epi := int32(len(pro) + len(c.seq))
		prog := cat(pro, c.seq, []isa.Instr{in(isa.ADDI, 3, 3, 1), {Op: isa.HALT}},
			trace, enter, []isa.Instr{in(isa.ADDI, 5, 5, 1), {Op: isa.HALT}})
		for i := range prog {
			switch {
			case prog[i].Op == isa.LDI && prog[i].Imm == -1:
				prog[i].Imm = epi
			case prog[i].Op == isa.CALL:
				prog[i].Imm = fuzzTarget(epi + 2)
			}
		}
		hdr := [8]byte{200, 2, 0, 1, 0, 0, 0, 0}
		if c.cap1 {
			hdr[3] = 0
		}
		requireKind(f, hdr, prog, len(pro), c.kind)
		out = append(out, callSeed{hdr, prog})
	}
	return out
}
