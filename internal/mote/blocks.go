package mote

import "codetomo/internal/isa"

// Dispatch kinds the block core adds after the ISA's opcodes: the fused
// frame idioms of the MiniC backend, the end-of-program sentinel and one
// kind for every undefined opcode. They follow the last opcode directly so
// the dispatch switch stays dense enough for a jump table.
const (
	opCopy  = isa.Op(len(isa.CostModel{}.Cycles)) + iota // ld x,[a+i]; st [c+j],x
	opConst                                              // ldi x,imm; st [c+j],x
	opBinop                                              // ld x,[a+i]; ld y,[b+j]; OP x,x,y; st [c+l],x
	opEnd                                                // pc == len(prog): ran off the end
	opBad                                                // an opcode the ISA does not define
)

// blockHead describes the block entered at one pc. A block runs from its
// entry pc to the first terminator at or after it (JMP, a conditional
// branch, CALL, RET, HALT or an undefined opcode) or to the end-of-program
// sentinel; every pc is a possible entry, so every pc has a head. The
// sentinel's head is zero.
type blockHead struct {
	// span is the base cycles from this pc up to the terminator, which
	// therefore starts span cycles after this pc does: the in-block time
	// of instruction k is tstart − head[k].span.
	span uint64
	// rest counts the instructions from this pc through the terminator
	// (the end-of-program sentinel is not one).
	rest uint32
	// nls counts the loads and stores from this pc up to the terminator.
	nls uint32
}

// blockCode is a program predecoded for the block core under one cost
// model. Machine.Reset keeps it while the cost model is unchanged, so a
// reused machine decodes its program once.
type blockCode struct {
	cost isa.CostModel // the model the spans were summed under
	// dec is the program with each opcode replaced by its dispatch kind,
	// plus the opEnd sentinel at len(prog). A fused idiom's kind sits on
	// its first instruction; the following instructions keep their own
	// kinds (for entries that land inside the idiom) and supply the
	// idiom's remaining operands.
	dec  []isa.Instr
	head []blockHead // indexed by entry pc, len(prog)+1 entries
	// pageOf[pc] is the flash page holding instruction pc, or nil when
	// the model has no page-cross penalty, so the check costs one nil test
	// per redirect.
	pageOf []uint32
}

// decodeBlocks builds prog's block table under cost.
func decodeBlocks(prog []isa.Instr, cost *isa.CostModel) *blockCode {
	n := len(prog)
	bc := &blockCode{
		cost:   *cost,
		dec:    make([]isa.Instr, n+1),
		head:   make([]blockHead, n+1),
		pageOf: cost.PageTable(prog),
	}
	bc.dec[n] = isa.Instr{Op: opEnd}
	var h blockHead
	for k := n - 1; k >= 0; k-- {
		op := prog[k].Op
		if terminates(op) {
			h = blockHead{}
		} else {
			h.span += uint64(cost.Cycles[op])
			if op == isa.LD || op == isa.ST {
				h.nls++
			}
		}
		h.rest++
		bc.head[k] = h
	}
	for k, in := range prog {
		switch {
		case in.Op >= opCopy:
			in.Op = opBad
		case fusesBinop(prog[k:]):
			in.Op = opBinop
		case fusesStore(prog[k:], isa.LD):
			in.Op = opCopy
		case fusesStore(prog[k:], isa.LDI):
			in.Op = opConst
		}
		bc.dec[k] = in
	}
	return bc
}

// terminates reports whether op ends a block: it redirects control, stops
// the machine, or is undefined.
func terminates(op isa.Op) bool {
	switch op {
	case isa.JMP, isa.BZ, isa.BNZ, isa.BEQ, isa.BNE, isa.BLT, isa.BGE,
		isa.CALL, isa.RET, isa.HALT:
		return true
	}
	return op >= opCopy
}

// fusesStore reports whether p starts with `first x, …; st [c+j], x` with
// c ≠ x: the store's address does not depend on the value just loaded, so
// the pair runs as one superinstruction that reads c up front.
func fusesStore(p []isa.Instr, first isa.Op) bool {
	return len(p) >= 2 && p[0].Op == first && p[1].Op == isa.ST &&
		p[1].Rb == p[0].Rd && p[1].Ra != p[0].Rd
}

// fusesBinop reports whether p starts with the backend's binary-operator
// idiom `ld x,[a+i]; ld y,[b+j]; OP x,x,y; st [c+l],x` with x ≠ y, b ≠ x
// and c ∉ {x, y}: neither later address depends on a loaded value and the
// operands are the two loaded values, so the idiom runs on locals with
// every address base read up front.
func fusesBinop(p []isa.Instr) bool {
	if len(p) < 4 || p[0].Op != isa.LD || p[1].Op != isa.LD || p[3].Op != isa.ST {
		return false
	}
	x, y := p[0].Rd, p[1].Rd
	switch p[2].Op {
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR, isa.SLT, isa.SLTU, isa.SEQ:
	default:
		return false
	}
	return x != y && p[1].Ra != x &&
		p[2].Rd == x && p[2].Ra == x && p[2].Rb == y &&
		p[3].Rb == x && p[3].Ra != x && p[3].Ra != y
}
