// Package isa defines the M16 instruction set — the machine language of the
// simulated sensor mote. M16 is a 16-bit in-order RISC MCU in the spirit of
// the AVR/MSP430 parts used on sensor motes:
//
//   - 16 general registers r0..r15 (r0 also carries return values, r15 is
//     the frame pointer by software convention) plus a dedicated SP.
//   - Data memory is word-addressed (16-bit words); program memory is a
//     separate flash addressed by instruction index (Harvard architecture).
//   - No condition flags: conditional control flow uses compare-and-branch
//     and branch-on-(non)zero instructions.
//   - No dynamic branch prediction: the pipeline statically predicts every
//     conditional branch (policy configurable), and pays a flush penalty
//     when the prediction is wrong. Code placement therefore directly
//     controls the misprediction rate — the effect the paper optimizes.
//
// The package also owns the cycle table and the byte-size table used for
// both execution timing and static code-size accounting, so the simulator
// and the compiler's timing model can never disagree.
package isa

import "fmt"

// Reg is a register number 0..15.
type Reg uint8

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Software register conventions used by the compiler backend.
const (
	RegRet      Reg = 0  // return value
	RegScratch1 Reg = 1  // codegen scratch
	RegScratch2 Reg = 2  // codegen scratch
	RegScratch3 Reg = 3  // codegen scratch
	RegFP       Reg = 15 // frame pointer
)

// Op enumerates M16 opcodes.
type Op uint8

// M16 opcodes.
const (
	NOP Op = iota
	HALT
	LDI   // rd = imm
	MOV   // rd = ra
	ADD   // rd = ra + rb
	SUB   // rd = ra - rb
	MUL   // rd = ra * rb (low 16 bits)
	DIV   // rd = ra / rb (signed; trap on zero)
	MOD   // rd = ra % rb (signed; trap on zero)
	AND   // rd = ra & rb
	OR    // rd = ra | rb
	XOR   // rd = ra ^ rb
	SHL   // rd = ra << (rb & 15)
	SHR   // rd = ra >> (rb & 15) logical
	SAR   // rd = ra >> (rb & 15) arithmetic
	ADDI  // rd = ra + imm
	XORI  // rd = ra ^ imm
	SLT   // rd = (ra < rb) signed ? 1 : 0
	SLTU  // rd = (ra < rb) unsigned ? 1 : 0
	SEQ   // rd = (ra == rb) ? 1 : 0
	LD    // rd = mem[ra + imm]
	ST    // mem[ra + imm] = rb
	PUSH  // mem[--sp] = ra
	POP   // rd = mem[sp++]
	SPADJ // sp += imm
	GETSP // rd = sp
	JMP   // pc = imm
	BZ    // if ra == 0: pc = imm
	BNZ   // if ra != 0: pc = imm
	BEQ   // if ra == rb: pc = imm
	BNE   // if ra != rb: pc = imm
	BLT   // if ra < rb (signed): pc = imm
	BGE   // if ra >= rb (signed): pc = imm
	CALL  // mem[--sp] = pc+1; pc = imm
	RET   // pc = mem[sp++]
	IN    // rd = port[imm]
	OUT   // port[imm] = ra
	// TRACE and PROFCNT are instrumentation pseudo-instructions. On real
	// hardware each stands for a short stub (read timer + append to a log
	// buffer; load-increment-store of a RAM counter). Modeling them as
	// single instructions with the stub's aggregate cycle/byte cost keeps
	// the perturbation they cause explicit and centrally configurable.
	TRACE   // log (imm, timer) to the trace buffer
	PROFCNT // profiling counter imm++
	numOps
)

var opNames = [numOps]string{
	NOP: "nop", HALT: "halt", LDI: "ldi", MOV: "mov", ADD: "add", SUB: "sub",
	MUL: "mul", DIV: "div", MOD: "mod", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SAR: "sar", ADDI: "addi", XORI: "xori",
	SLT: "slt", SLTU: "sltu", SEQ: "seq", LD: "ld", ST: "st",
	PUSH: "push", POP: "pop", SPADJ: "spadj", GETSP: "getsp",
	JMP: "jmp", BZ: "bz", BNZ: "bnz", BEQ: "beq", BNE: "bne",
	BLT: "blt", BGE: "bge", CALL: "call", RET: "ret", IN: "in", OUT: "out",
	TRACE: "trace", PROFCNT: "profcnt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one M16 instruction. Unused fields are zero.
type Instr struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int32 // immediate / address / port, sign-extended
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Instr) IsCondBranch() bool {
	switch i.Op {
	case BZ, BNZ, BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT, RET:
		return i.Op.String()
	case LDI:
		return fmt.Sprintf("%s %v, %d", i.Op, i.Rd, i.Imm)
	case MOV, GETSP:
		if i.Op == GETSP {
			return fmt.Sprintf("%s %v", i.Op, i.Rd)
		}
		return fmt.Sprintf("%s %v, %v", i.Op, i.Rd, i.Ra)
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SAR, SLT, SLTU, SEQ:
		return fmt.Sprintf("%s %v, %v, %v", i.Op, i.Rd, i.Ra, i.Rb)
	case ADDI, XORI:
		return fmt.Sprintf("%s %v, %v, %d", i.Op, i.Rd, i.Ra, i.Imm)
	case LD:
		return fmt.Sprintf("%s %v, [%v%+d]", i.Op, i.Rd, i.Ra, i.Imm)
	case ST:
		return fmt.Sprintf("%s [%v%+d], %v", i.Op, i.Ra, i.Imm, i.Rb)
	case PUSH:
		return fmt.Sprintf("%s %v", i.Op, i.Ra)
	case POP:
		return fmt.Sprintf("%s %v", i.Op, i.Rd)
	case SPADJ:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case JMP, CALL:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case BZ, BNZ:
		return fmt.Sprintf("%s %v, %d", i.Op, i.Ra, i.Imm)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s %v, %v, %d", i.Op, i.Ra, i.Rb, i.Imm)
	case IN:
		return fmt.Sprintf("%s %v, port%d", i.Op, i.Rd, i.Imm)
	case OUT:
		return fmt.Sprintf("%s port%d, %v", i.Op, i.Imm, i.Ra)
	case TRACE, PROFCNT:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	default:
		return fmt.Sprintf("%s ?", i.Op)
	}
}
