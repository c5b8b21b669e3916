package compile

import (
	"codetomo/internal/ir"
	"codetomo/internal/isa"
)

// fusedOp maps a comparison operator to the compare-and-branch opcode that
// transfers when the comparison holds (negate=false) or fails
// (negate=true), with swap indicating the operands must be exchanged
// (M16 has BLT/BGE but not BGT/BLE).
func fusedOp(op ir.Op, negate bool) (mop isa.Op, swap bool) {
	if negate {
		switch op {
		case ir.OpLt:
			op = ir.OpGe
		case ir.OpGe:
			op = ir.OpLt
		case ir.OpGt:
			op = ir.OpLe
		case ir.OpLe:
			op = ir.OpGt
		case ir.OpEq:
			op = ir.OpNe
		case ir.OpNe:
			op = ir.OpEq
		}
	}
	switch op {
	case ir.OpLt:
		return isa.BLT, false
	case ir.OpGe:
		return isa.BGE, false
	case ir.OpGt:
		return isa.BLT, true
	case ir.OpLe:
		return isa.BGE, true
	case ir.OpEq:
		return isa.BEQ, false
	case ir.OpNe:
		return isa.BNE, false
	}
	// fusableCompare guarantees a comparison operator.
	panic("compile: fusedOp on non-comparison " + op.String())
}

// fusedCond is genBranch's cond for a Br whose condition was a one-use
// trailing comparison op, with the comparison operands already in scratch
// registers r1 (A) and r2 (B).
func fusedCond(op ir.Op) func(negate bool) isa.Instr {
	return func(negate bool) isa.Instr {
		mop, swap := fusedOp(op, negate)
		if swap {
			return isa.Instr{Op: mop, Ra: isa.RegScratch2, Rb: isa.RegScratch1}
		}
		return isa.Instr{Op: mop, Ra: isa.RegScratch1, Rb: isa.RegScratch2}
	}
}
