package mote

import (
	"fmt"

	"codetomo/internal/isa"
)

// Devirtualized predictor kinds, resolved once in New from the concrete
// type of Config.Predictor. The block core dispatches on this small
// integer instead of making an interface call (plus a TrainablePredictor
// type assertion) per conditional branch.
const (
	predGeneric uint8 = iota // unknown implementation: interface calls
	predNotTaken
	predBTFN
	predBimodal
)

// Run executes until HALT, an execution fault, or the cycle budget is
// exhausted. A HALT stop returns nil; budget exhaustion returns
// ErrCycleBudget wrapped with position info.
//
// Run is the block core: it executes the program one basic block (jump
// chains threaded) at a time from the predecoded table in blocks.go,
// checking the stop and charging cycles, instructions and loads/stores
// once per block, and running the MiniC backend's frame idioms as fused,
// store-forwarding superinstructions. Execution is split into cycle-bounded
// segments (the sooner of the budget and the next scheduled fault reset),
// the predictor is devirtualized, branch ground truth lands in a dense
// pc-indexed table, and nothing is allocated per instruction. The
// differential property test, TestCompiledCoresAgree and FuzzFastCore
// pin it bit-identical to the Step/RunReference core: same Stats
// (including the cycle count and pc reported on budget exhaustion),
// trace, registers, and memory.
func (m *Machine) Run(maxCycles uint64) error {
	if m.power != nil {
		// Intermittent execution drains the capacitor per instruction, so
		// there are no reset-free segments to fuse: delegate to the
		// per-instruction reference loop. Both cores are then identical by
		// construction under power mode.
		return m.RunReference(maxCycles)
	}
	for !m.halted {
		if m.stats.Cycles >= maxCycles {
			return fmt.Errorf("%w at pc=%d after %d instructions", ErrCycleBudget, m.pc, m.stats.Instructions)
		}
		if m.resetIdx < len(m.cfg.Resets) && m.stats.Cycles >= m.cfg.Resets[m.resetIdx].AtCycle {
			m.reboot(m.cfg.Resets[m.resetIdx].DownCycles)
			m.resetIdx++
			continue
		}
		// Within [Cycles, stop) neither the budget nor a reset can fire,
		// so the block loop checks only that a block ends before stop.
		// Both bounds are strictly above the current cycle count here, so
		// every segment makes progress and exits with the exact cycle
		// count and pc the per-Step checks of the reference core would see.
		stop := maxCycles
		if m.resetIdx < len(m.cfg.Resets) && m.cfg.Resets[m.resetIdx].AtCycle < stop {
			stop = m.cfg.Resets[m.resetIdx].AtCycle
		}
		if err := m.runSegment(stop); err != nil {
			return err
		}
	}
	return nil
}

// runSegment is the block dispatch loop: run whole blocks until the cycle
// counter reaches stop, the program halts, or an execution fault stops it.
//
// A block entered at pc runs to its terminator (see blocks.go). If the
// terminator starts before stop, nothing inside the block can reach a
// budget or reset check, so the block's instructions and loads/stores are
// counted on entry and its body runs with no per-instruction bookkeeping:
// the instruction at k starts at cycle tstart − head[k].span, which is all
// that timer reads and TRACE need. The terminator then charges the cycles
// up to it plus its own cost and penalties. A block the stop lands in is
// stepped one instruction at a time on the reference core's stepInstr
// instead, up to the stop.
//
// Inside a block only k (the executing pc) changes: cycles and pc change
// at the terminator and the counts at the entry, so an instruction's
// dispatch tail is the increment of k alone. Faults charge no cycles and
// leave pc on the faulting instruction, which is itself counted, exactly
// as in the reference core; they share one cold exit that takes back the
// counts of what the block did not run.
func (m *Machine) runSegment(stop uint64) error {
	dec, head, pageOf, mem := m.code.dec, m.code.head, m.code.pageOf, m.mem
	pc := m.pc
	cycles := m.stats.Cycles
	var (
		err    error
		k      int    // the executing pc
		tstart uint64 // the cycle the block's terminator starts at
	)

blocks:
	for {
		if uint(int(pc)) >= uint(len(head)) {
			if cycles >= stop {
				break
			}
			m.pc, m.stats.Cycles = pc, cycles
			return fmt.Errorf("%w: pc=%d", ErrPCFault, pc)
		}
		h := &head[int(pc)]
		tstart = cycles + h.span
		if tstart >= stop {
			m.pc, m.stats.Cycles = pc, cycles
			for m.stats.Cycles < stop && !m.halted {
				if err := m.stepInstr(); err != nil {
					return err
				}
			}
			return nil
		}
		m.stats.Instructions += uint64(h.rest)
		m.stats.LoadsStores += uint64(h.nls)

		for k = int(pc); ; k++ {
			in := &dec[k]
			var (
				taken, ok bool
				x, y      uint16 // a fused idiom's operands, then its result
				kind      isa.Op // a binop-ended idiom's kind, for its tail
			)
			switch in.Op {
			case isa.NOP:
			case isa.LDI:
				m.regs[in.Rd] = uint16(in.Imm)
			case isa.MOV:
				m.regs[in.Rd] = m.regs[in.Ra]
			case isa.ADD:
				m.regs[in.Rd] = m.regs[in.Ra] + m.regs[in.Rb]
			case isa.SUB:
				m.regs[in.Rd] = m.regs[in.Ra] - m.regs[in.Rb]
			case isa.MUL:
				m.regs[in.Rd] = uint16(int16(m.regs[in.Ra]) * int16(m.regs[in.Rb]))
			case isa.DIV, isa.MOD:
				rd := in.Rd
				if x, ok = divide(in.Op, m.regs[in.Ra], m.regs[in.Rb]); !ok {
					err = divFault(k)
					goto fault
				}
				m.regs[rd] = x
			case isa.AND:
				m.regs[in.Rd] = m.regs[in.Ra] & m.regs[in.Rb]
			case isa.OR:
				m.regs[in.Rd] = m.regs[in.Ra] | m.regs[in.Rb]
			case isa.XOR:
				m.regs[in.Rd] = m.regs[in.Ra] ^ m.regs[in.Rb]
			case isa.SHL:
				m.regs[in.Rd] = m.regs[in.Ra] << (m.regs[in.Rb] & 15)
			case isa.SHR:
				m.regs[in.Rd] = m.regs[in.Ra] >> (m.regs[in.Rb] & 15)
			case isa.SAR:
				m.regs[in.Rd] = uint16(int16(m.regs[in.Ra]) >> (m.regs[in.Rb] & 15))
			case isa.ADDI:
				m.regs[in.Rd] = m.regs[in.Ra] + uint16(in.Imm)
			case isa.XORI:
				m.regs[in.Rd] = m.regs[in.Ra] ^ uint16(in.Imm)
			case isa.SLT, opSgt: // entered directly, a swapped compare is a plain one
				m.regs[in.Rd] = boolWord(int16(m.regs[in.Ra]) < int16(m.regs[in.Rb]))
			case isa.SLTU:
				m.regs[in.Rd] = boolWord(m.regs[in.Ra] < m.regs[in.Rb])
			case isa.SEQ:
				m.regs[in.Rd] = boolWord(m.regs[in.Ra] == m.regs[in.Rb])
			case isa.LD:
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
			case isa.ST:
				if !m.store(mem, in, m.regs[in.Rb]) {
					goto memFault
				}
			case isa.PUSH:
				if m.sp <= 0 {
					err = stackFault("push", m.sp, k)
					goto fault
				}
				m.sp--
				mem[m.sp] = m.regs[in.Ra]
			case isa.POP:
				if int(m.sp) >= len(mem) {
					err = stackFault("pop", m.sp, k)
					goto fault
				}
				m.regs[in.Rd] = mem[m.sp]
				m.sp++
			case isa.GETSP:
				m.regs[in.Rd] = uint16(m.sp)
			case isa.IN:
				m.regs[in.Rd] = m.portIn(in.Imm, tstart-head[k].span)
			case isa.OUT:
				m.portOut(in.Imm, m.regs[in.Ra])
			case isa.TRACE:
				if !m.traceAt(in.Imm, tstart-head[k].span) {
					goto traceFault
				}
			case isa.PROFCNT:
				m.profCnt[k]++

			// The fused frame idioms, exactly sequential by the fuses
			// predicates' register constraints: every write lands before
			// the next sub-instruction can fault, so a fault at
			// sub-instruction j leaves the reference core's state at k+j.
			case opCopy: // ld x,[a+i]; st [c+j],x
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				if !m.store(mem, &dec[k], x) {
					goto memFault
				}
			case opConst: // ldi x,imm; st [c+j],x
				x = uint16(in.Imm)
				m.regs[in.Rd] = x
				k++
				if !m.store(mem, &dec[k], x) {
					goto memFault
				}
			case opExpr, opExprBr, opExprCp: // ldi t,K; st [c+j],t; ld x,[a+i]; ld y←[c+j]; then alu
				kind = in.Op
				y = uint16(in.Imm)
				m.regs[in.Rd] = y
				k++
				if !m.store(mem, &dec[k], y) {
					goto memFault
				}
				k++
				if x, ok = m.load(mem, &dec[k]); !ok {
					goto memFault
				}
				m.regs[dec[k+1].Rd] = y
				k += 2
				goto alu
			case opCopyExpr, opCopyExprBr, opCopyExprCp: // copy u to [a+i]; ldi t,K; st [c+j],t; ld x←[a+i]; ld y←[c+j]; then alu
				kind = in.Op
				q := dec[k : k+6 : k+6]
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				if !m.store(mem, &q[1], x) {
					goto memFault
				}
				y = uint16(q[2].Imm)
				m.regs[q[2].Rd] = y
				k += 2
				if !m.store(mem, &q[3], y) {
					goto memFault
				}
				m.regs[q[4].Rd] = x
				m.regs[q[5].Rd] = y
				k += 3
				goto alu
			case opBinop, opBinopBr, opBinopCp: // ld x,[a+i]; ld y,[b+j]; then alu
				kind = in.Op
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				if y, ok = m.load(mem, &dec[k]); !ok {
					goto memFault
				}
				k++
				goto alu
			case opLdBr: // ld x,[a+i]; bz/bnz x
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				goto bzx
			case opLdOut: // ld x,[a+i]; out p,x
				if x, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				m.portOut(dec[k].Imm, x)
			case opConstOut: // ldi x,K; out p,x
				x = uint16(in.Imm)
				m.regs[in.Rd] = x
				k++
				m.portOut(dec[k].Imm, x)
			case opJmp, opJmpX: // its block's head already counts it
				k = m.thread(in) - 1

			// A call's entry: the frame pointer saved and set, the frame
			// allocated, each step falling through to the next.
			case opTrEnter: // trace K
				if !m.traceAt(in.Imm, tstart-head[k].span) {
					goto traceFault
				}
				k++
				fallthrough
			case opEnter: // push f; getsp f
				if m.sp <= 0 {
					err = stackFault("push", m.sp, k)
					goto fault
				}
				m.sp--
				mem[m.sp] = m.regs[dec[k].Ra]
				m.regs[dec[k+1].Rd] = uint16(m.sp)
				k += 2
				fallthrough
			case isa.SPADJ:
				if ns := m.sp + dec[k].Imm; ns < 0 || int(ns) > len(mem) {
					goto spadjFault
				}
				m.sp += dec[k].Imm

			// Terminators: each ends the block, charging the cycles up to
			// it plus its own cost and penalties.
			case isa.HALT:
				m.halted = true
				m.pc = int32(k) + 1
				m.stats.Cycles = tstart + uint64(m.costs[isa.HALT])
				return nil
			case isa.JMP:
				cost := uint64(m.costs[isa.JMP])
				next := in.Imm
				if pageOf != nil && uint(next) < uint(len(pageOf)) && pageOf[next] != pageOf[k] {
					cost += m.pagePen
					m.stats.PageCrossings++
				}
				cycles, pc = tstart+cost, next
				continue blocks
			case isa.BZ:
				taken = m.regs[in.Ra] == 0
				goto branch
			case isa.BNZ:
				taken = m.regs[in.Ra] != 0
				goto branch
			case isa.BEQ:
				taken = m.regs[in.Ra] == m.regs[in.Rb]
				goto branch
			case isa.BNE:
				taken = m.regs[in.Ra] != m.regs[in.Rb]
				goto branch
			case isa.BLT:
				taken = int16(m.regs[in.Ra]) < int16(m.regs[in.Rb])
				goto branch
			case isa.BGE:
				taken = int16(m.regs[in.Ra]) >= int16(m.regs[in.Rb])
				goto branch
			case isa.CALL, opCall:
				next, threaded := in.Imm, in.Op == opCall
				if m.sp <= 0 {
					err = stackFault("call", m.sp, k)
					goto fault
				}
				m.sp--
				mem[m.sp] = uint16(k + 1)
				m.stats.Calls++
				if threaded { // its block's head already counts it
					k = int(next) - 1
					continue
				}
				cycles, pc = tstart+uint64(m.costs[isa.CALL]), next
				continue blocks

			// A return, each step falling through to the next; the RET
			// ends the block.
			case opLdTrLeave: // ld x,[a+i]
				if _, ok = m.load(mem, in); !ok {
					goto memFault
				}
				k++
				fallthrough
			case opTrLeave: // trace K
				if !m.traceAt(dec[k].Imm, tstart-head[k].span) {
					goto traceFault
				}
				k++
				fallthrough
			case opLeave: // spadj N; pop f
				if ns := m.sp + dec[k].Imm; ns < 0 || int(ns) > len(mem) {
					goto spadjFault
				}
				m.sp += dec[k].Imm
				k++
				if int(m.sp) >= len(mem) {
					err = stackFault("pop", m.sp, k)
					goto fault
				}
				m.regs[dec[k].Rd] = mem[m.sp]
				m.sp++
				k++
				fallthrough
			case isa.RET:
				if int(m.sp) >= len(mem) {
					err = stackFault("ret", m.sp, k)
					goto fault
				}
				next := int32(mem[m.sp])
				m.sp++
				cycles, pc = tstart+uint64(m.costs[isa.RET]), next
				continue blocks
			case opEnd:
				// Execution ran off the end of the program; the block's
				// count never included the missing instruction.
				m.pc, m.stats.Cycles = int32(k), tstart
				return fmt.Errorf("%w: pc=%d", ErrPCFault, k)
			default: // opBad
				err = fmt.Errorf("%w: opcode %v at pc=%d", ErrBadInstr, m.prog[k].Op, k)
				goto fault
			}
			continue

		alu:
			// k is the OP x,x,y of a binop-ended idiom of the given kind,
			// x and y its operands. A call spills every live register on
			// this path, so only division, which can fault, makes one.
			switch dec[k].Op {
			case isa.ADD:
				x += y
			case isa.SUB:
				x -= y
			case isa.MUL:
				x = uint16(int16(x) * int16(y))
			case isa.DIV, isa.MOD:
				if x, ok = divide(dec[k].Op, x, y); !ok {
					err = divFault(k)
					goto fault
				}
			case isa.AND:
				x &= y
			case isa.OR:
				x |= y
			case isa.XOR:
				x ^= y
			case isa.SHL:
				x <<= y & 15
			case isa.SHR:
				x >>= y & 15
			case isa.SAR:
				x = uint16(int16(x) >> (y & 15))
			case isa.SLT:
				x = boolWord(int16(x) < int16(y))
			case isa.SLTU:
				x = boolWord(x < y)
			case opSgt:
				x = boolWord(int16(y) < int16(x))
			case isa.SEQ:
				x = boolWord(x == y)
			}
			m.regs[dec[k].Rd] = x
			k++
			if !m.store(mem, &dec[k], x) {
				goto memFault
			}
			if kind < opBinopBr {
				continue
			}
			// The tail: ld z←[d+l], then bz/bnz z or st [e+m],z.
			k++
			m.regs[dec[k].Rd] = x
			k++
			if kind >= opBinopCp {
				if !m.store(mem, &dec[k], x) {
					goto memFault
				}
				if j := &dec[k+1]; j.Op == opJmp || j.Op == opJmpX {
					k = m.thread(j) - 1 // the threaded jump, without its dispatch
				}
				continue
			}
		bzx: // the bz x or bnz x at k, x loaded or forwarded
			taken = (x == 0) == (dec[k].Op == isa.BZ)

		branch:
			// A conditional branch at k, its outcome decided per opcode
			// above: one dispatch per branch, not two.
			br := &dec[k]
			bpc := int32(k)
			cost := uint64(m.costs[br.Op])
			next := bpc + 1
			m.stats.CondBranches++
			bs := &m.branchStat[k]
			var predicted bool
			switch m.predKind {
			case predNotTaken:
				// predicted stays false
			case predBTFN:
				predicted = br.Imm <= bpc
			case predBimodal:
				predicted = m.bimodal.table[bpc&m.bimodal.mask] >= 2
			default:
				predicted = m.cfg.Predictor.PredictTaken(bpc, *br)
			}
			if taken {
				m.stats.TakenBranches++
				bs.Taken++
				next = br.Imm
				if pageOf != nil && uint(next) < uint(len(pageOf)) && pageOf[next] != pageOf[k] {
					cost += m.pagePen
					m.stats.PageCrossings++
				}
			} else {
				bs.NotTaken++
			}
			if predicted != taken {
				m.stats.Mispredicts++
				bs.Mispred++
				cost += m.penalty
			}
			switch m.predKind {
			case predBimodal:
				t := m.bimodal.table
				j := bpc & m.bimodal.mask
				if taken {
					if t[j] < 3 {
						t[j]++
					}
				} else if t[j] > 0 {
					t[j]--
				}
			case predGeneric:
				if m.trainable != nil {
					m.trainable.Train(bpc, taken)
				}
			}
			cycles, pc = tstart+cost, next
			continue blocks
		}
	}

	m.pc = pc
	m.stats.Cycles = cycles
	return nil

memFault:
	// The load or store at k was out of range; its base is unchanged.
	if in := m.prog[k]; in.Op == isa.LD {
		err = memFault("load", int32(int16(m.regs[in.Ra]))+in.Imm, k)
	} else {
		err = memFault("store", int32(int16(m.regs[in.Ra]))+in.Imm, k)
	}
	goto fault

spadjFault:
	// The SPADJ at k would leave the stack; sp is unchanged.
	err = spadjFault(m.sp+m.prog[k].Imm, k)
	goto fault

traceFault:
	// The TRACE at k found the buffer full.
	err = traceFault(len(m.trace))

fault:
	// The instruction at k faulted: it stays counted but charges no
	// cycles, and the rest of the block, counted on entry, never ran.
	h := &head[k]
	m.pc = int32(k)
	m.stats.Cycles = tstart - h.span
	m.stats.Instructions -= uint64(h.rest - 1)
	m.stats.LoadsStores -= uint64(h.nls)
	return err
}

// divide applies DIV or MOD; ok is false for a zero divisor.
func divide(op isa.Op, x, y uint16) (v uint16, ok bool) {
	switch {
	case y == 0:
		return 0, false
	case op == isa.DIV:
		return uint16(int16(x) / int16(y)), true
	}
	return uint16(int16(x) % int16(y)), true
}

// traceAt logs TRACE id for an instruction that starts at cycle at, and
// reports false, logging nothing, when the trace buffer is full; both
// cores share it.
func (m *Machine) traceAt(id int32, at uint64) bool {
	if len(m.trace) >= m.cfg.MaxTraceEvents {
		return false
	}
	m.trace = append(m.trace, TraceEvent{ID: id, Tick: at/uint64(m.cfg.TickDiv) + m.cfg.ClockOffsetTicks})
	return true
}

// thread runs the threaded JMP jmp, whose cycles its block's head already
// counts, and returns its target; a page crossing is counted here.
func (m *Machine) thread(jmp *isa.Instr) int {
	if jmp.Op == opJmpX {
		m.stats.PageCrossings++
	}
	return int(jmp.Imm)
}

// load and store access the word of mem at in's address [Ra+Imm], false
// and changing nothing when it is out of range; load also sets Rd.
func (m *Machine) load(mem []uint16, in *isa.Instr) (uint16, bool) {
	addr := int32(int16(m.regs[in.Ra])) + in.Imm
	if uint(int(addr)) >= uint(len(mem)) {
		return 0, false
	}
	v := mem[int(addr)]
	m.regs[in.Rd] = v
	return v, true
}

func (m *Machine) store(mem []uint16, in *isa.Instr, v uint16) bool {
	addr := int32(int16(m.regs[in.Ra])) + in.Imm
	if uint(int(addr)) >= uint(len(mem)) {
		return false
	}
	mem[int(addr)] = v
	return true
}

// The fault errors both cores report, formatted identically. They stay
// out of line so the dispatch loop's cold paths are only a call.

//go:noinline
func divFault(pc int) error { return fmt.Errorf("%w at pc=%d", ErrDivByZero, pc) }

//go:noinline
func memFault(kind string, addr int32, pc int) error {
	return fmt.Errorf("%w: %s addr %d at pc=%d", ErrMemFault, kind, addr, pc)
}

//go:noinline
func spadjFault(sp int32, pc int) error {
	return fmt.Errorf("%w: spadj to %d at pc=%d", ErrStackFault, sp, pc)
}

//go:noinline
func traceFault(events int) error { return fmt.Errorf("%w: %d events", ErrTraceOverflow, events) }

//go:noinline
func stackFault(kind string, sp int32, pc int) error {
	return fmt.Errorf("%w: %s with sp=%d at pc=%d", ErrStackFault, kind, sp, pc)
}
