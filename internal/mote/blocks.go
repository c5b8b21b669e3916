package mote

import "codetomo/internal/isa"

// Dispatch kinds the block core adds after the ISA's opcodes, dense so the
// dispatch switch stays a jump table: the MiniC backend's fused frame
// idioms, the threaded jump and call, the end-of-program sentinel and one
// kind for every undefined opcode. A load marked ← is forwarded (see
// forwards).
const (
	opCopy       = isa.Op(len(isa.CostModel{}.Cycles)) + iota // ld x,[a+i]; st [c+j],x
	opConst                                                   // ldi x,imm; st [c+j],x
	opBinop                                                   // ld x,[a+i]; ld y,[b+j]; OP x,x,y; st [d+l],x
	opExpr                                                    // ldi t,K; st [c+j],t; binop with ld y←[c+j]
	opCopyExpr                                                // copy to [a+i]; expr with ld x←[a+i]
	opBinopBr                                                 // binop storing [d+l]; ld z←[d+l]; bz/bnz z
	opExprBr                                                  // expr, then the same branch tail
	opCopyExprBr                                              // copy-expr, then the same branch tail
	opBinopCp                                                 // binop storing [d+l]; ld z←[d+l]; st [e+m],z
	opExprCp                                                  // expr, then the same copy tail
	opCopyExprCp                                              // copy-expr, then the same copy tail
	opLdBr                                                    // ld x,[a+i]; bz/bnz x
	opLdOut                                                   // ld x,[a+i]; out p,x
	opConstOut                                                // ldi x,K; out p,x
	opTrEnter                                                 // trace K; then an entry
	opEnter                                                   // push f; getsp f; spadj -N
	opLdTrLeave                                               // ld x,[a+i]; then a traced return
	opTrLeave                                                 // trace K; then a return
	opLeave                                                   // spadj N; pop f; ret (a terminator)
	opJmp                                                     // a JMP threaded into the block before it
	opJmpX                                                    // the same, crossing a flash page
	opCall                                                    // a CALL threaded into the callee's entry block
	opSgt                                                     // slt x,y,x inside a fused binop: x = y < x
	opEnd                                                     // pc == len(prog): ran off the end
	opBad                                                     // an opcode the ISA does not define
)

// blockHead describes the block entered at one pc. A block runs from its
// entry pc to the first terminator at or after it (a conditional branch,
// RET, HALT, an undefined opcode or an unthreaded JMP or CALL) or to the
// end-of-program sentinel; every pc is a possible entry, so every pc has a
// head. A threaded JMP or CALL does not end a block, which continues at
// its target's block. The sentinel's head is zero.
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
	// branches lists the conditional branches' pcs, the only entries of
	// the ground-truth branch table either core writes.
	branches []int32
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
	// Plain heads, every JMP a terminator.
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
		if in.IsCondBranch() {
			bc.branches = append(bc.branches, int32(k))
		}
		p := prog[k:]
		switch {
		case in.Op >= opCopy:
			in.Op = opBad
		case fusesCopyExpr(p):
			in.Op = opCopyExpr + tail(p[7:])
		case fusesExpr(p):
			in.Op = opExpr + tail(p[5:])
		case fusesBinop(p):
			in.Op = opBinop + tail(p[3:])
		case fusesLdBr(p):
			in.Op = opLdBr
		case fusesOut(p, isa.LD):
			in.Op = opLdOut
		case fusesOut(p, isa.LDI):
			in.Op = opConstOut
		case starts(p, isa.TRACE, isa.PUSH, isa.GETSP, isa.SPADJ):
			in.Op = opTrEnter
		case starts(p, isa.PUSH, isa.GETSP, isa.SPADJ):
			in.Op = opEnter
		case starts(p, isa.LD, isa.TRACE, isa.SPADJ, isa.POP, isa.RET):
			in.Op = opLdTrLeave
		case starts(p, isa.TRACE, isa.SPADJ, isa.POP, isa.RET):
			in.Op = opTrLeave
		case starts(p, isa.SPADJ, isa.POP, isa.RET):
			in.Op = opLeave
		case fusesStore(p, isa.LD):
			in.Op = opCopy
		case fusesStore(p, isa.LDI):
			in.Op = opConst
		}
		bc.dec[k] = in
	}
	// A fused binop's swapped compare `slt x,y,x` (MiniC's `a > b`) gets
	// its own operator kind, so the operator switch needs no swap check.
	for k := range prog {
		if fusesBinop(prog[k:]) && prog[k+2].Ra != prog[k+2].Rd {
			bc.dec[k+2].Op = opSgt
		}
	}
	// Thread every JMP and CALL whose chain of JMP- or CALL-ended target
	// blocks reaches a real terminator within maxThread jumps (never a
	// cycle, such as recursion, or an out-of-range target): fold the jump
	// or call, a jump's page-cross penalty (a CALL pays none) and its
	// target's head into its block's heads, shortest chains first.
	const maxThread = 8
	threads := func(op isa.Op) bool { return op == isa.JMP || op == isa.CALL }
	depth := func(j int) (d int) {
		for ; j < n && threads(prog[j].Op) && uint(prog[j].Imm) < uint(n) && d <= maxThread; d++ {
			for j = int(prog[j].Imm); j < n && !terminates(prog[j].Op); j++ {
			}
		}
		return d
	}
	for d := 1; d <= maxThread; d++ {
		for j := range prog {
			if depth(j) != d {
				continue
			}
			op, next := prog[j].Op, prog[j].Imm
			ext := bc.head[next]
			ext.span += uint64(cost.Cycles[op])
			bc.dec[j].Op = opJmp
			switch {
			case op == isa.CALL:
				bc.dec[j].Op = opCall
			case bc.pageOf != nil && bc.pageOf[next] != bc.pageOf[j]:
				ext.span += uint64(cost.PageCrossPenalty)
				bc.dec[j].Op = opJmpX
			}
			for k := j; k == j || k >= 0 && !terminates(prog[k].Op); k-- {
				h := &bc.head[k]
				h.span, h.rest, h.nls = h.span+ext.span, h.rest+ext.rest, h.nls+ext.nls
			}
		}
	}
	bc.dec[n] = isa.Instr{Op: opEnd}
	return bc
}

// terminates reports whether op ends a plain block: it redirects control,
// stops the machine, or is undefined.
func terminates(op isa.Op) bool {
	switch op {
	case isa.JMP, isa.BZ, isa.BNZ, isa.BEQ, isa.BNE, isa.BLT, isa.BGE,
		isa.CALL, isa.RET, isa.HALT:
		return true
	}
	return op >= opCopy
}

// fusesStore reports whether p starts with `first x, …; st [c+j], x` with
// c ≠ x, so the store's address does not depend on the value just loaded.
func fusesStore(p []isa.Instr, first isa.Op) bool {
	return len(p) >= 2 && p[0].Op == first && p[1].Op == isa.ST &&
		p[1].Rb == p[0].Rd && p[1].Ra != p[0].Rd
}

// fusesBinop reports whether p starts with the backend's binary-operator
// idiom `ld x,[a+i]; ld y,[b+j]; OP x,x,y; st [c+l],x` (or, for `a > b`,
// `slt x,y,x`) with x ≠ y, b ≠ x and c ∉ {x, y}: no later address depends
// on a loaded value, and the operands are the two loaded values, so the
// operator runs on locals.
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
	ops := p[2].Ra == x && p[2].Rb == y ||
		p[2].Op == isa.SLT && p[2].Ra == y && p[2].Rb == x // the swapped compare x = y < x
	return x != y && p[1].Ra != x && p[2].Rd == x && ops &&
		p[3].Rb == x && p[3].Ra != x && p[3].Ra != y
}

// forwards reports whether the load ld reads back the slot st stored: same
// base register and offset, the base unwritten in between (the caller's
// check). The load then takes the stored value and cannot fault, since
// the store passed the same address check.
func forwards(st, ld isa.Instr) bool {
	return ld.Op == isa.LD && st.Ra == ld.Ra && st.Imm == ld.Imm
}

// fusesExpr reports whether p starts with a const `ldi t,K; st [c+j],t`
// and a binop whose ld y reads [c+j] back (c ≠ x, as b ≠ x in a binop).
func fusesExpr(p []isa.Instr) bool {
	return fusesStore(p, isa.LDI) && fusesBinop(p[2:]) && forwards(p[1], p[3])
}

// fusesCopyExpr reports whether p starts with a copy to [a+i] and then an
// expr whose ld x reads [a+i] back; the constant's store in between must
// use base a (which its ldi therefore leaves alone) at another offset.
func fusesCopyExpr(p []isa.Instr) bool {
	return fusesStore(p, isa.LD) && fusesExpr(p[2:]) && forwards(p[1], p[4]) &&
		p[3].Ra == p[1].Ra && p[3].Imm != p[1].Imm
}

// fusesLdBr reports whether p starts with `ld x,[a+i]; bz/bnz x`.
func fusesLdBr(p []isa.Instr) bool {
	return len(p) >= 2 && p[0].Op == isa.LD && (p[1].Op == isa.BZ || p[1].Op == isa.BNZ) &&
		p[1].Ra == p[0].Rd
}

// fusesOut reports whether p starts with `first x, …; out p,x`.
func fusesOut(p []isa.Instr, first isa.Op) bool {
	return len(p) >= 2 && p[0].Op == first && p[1].Op == isa.OUT && p[1].Ra == p[0].Rd
}

// starts reports whether p starts with the opcodes ops: the call entry and
// return idioms, which run sequentially whatever their registers.
func starts(p []isa.Instr, ops ...isa.Op) bool {
	for i, op := range ops {
		if i >= len(p) || p[i].Op != op {
			return false
		}
	}
	return true
}

// tail is the offset from a binop-ended kind to its Br variant when its
// final store p[0] is followed by a load-and-branch that reads the slot
// back, to its Cp variant when by such a copy, and 0 otherwise.
func tail(p []isa.Instr) isa.Op {
	switch {
	case len(p) < 3 || !forwards(p[0], p[1]):
		return 0
	case fusesLdBr(p[1:]):
		return opBinopBr - opBinop
	case fusesStore(p[1:], isa.LD):
		return opBinopCp - opBinop
	}
	return 0
}
