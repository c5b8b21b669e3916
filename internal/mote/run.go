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
// Run is the block core: it executes the program one basic block at a
// time from the predecoded table in blocks.go, checking the stop and
// charging cycles, instructions and loads/stores once per block rather
// than once per instruction, and running the MiniC backend's frame idioms
// as fused superinstructions. Execution is split into cycle-bounded
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
	dec, head, pageOf := m.code.dec, m.code.head, m.code.pageOf
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
			var taken bool
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
			case isa.DIV:
				if m.regs[in.Rb] == 0 {
					err = divFault(k)
					goto fault
				}
				m.regs[in.Rd] = uint16(int16(m.regs[in.Ra]) / int16(m.regs[in.Rb]))
			case isa.MOD:
				if m.regs[in.Rb] == 0 {
					err = divFault(k)
					goto fault
				}
				m.regs[in.Rd] = uint16(int16(m.regs[in.Ra]) % int16(m.regs[in.Rb]))
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
			case isa.SLT:
				m.regs[in.Rd] = boolWord(int16(m.regs[in.Ra]) < int16(m.regs[in.Rb]))
			case isa.SLTU:
				m.regs[in.Rd] = boolWord(m.regs[in.Ra] < m.regs[in.Rb])
			case isa.SEQ:
				m.regs[in.Rd] = boolWord(m.regs[in.Ra] == m.regs[in.Rb])
			case isa.LD:
				addr := int32(int16(m.regs[in.Ra])) + in.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("load", addr, k)
					goto fault
				}
				m.regs[in.Rd] = m.mem[int(addr)]
			case isa.ST:
				addr := int32(int16(m.regs[in.Ra])) + in.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("store", addr, k)
					goto fault
				}
				m.mem[int(addr)] = m.regs[in.Rb]
			case isa.PUSH:
				if m.sp <= 0 {
					err = stackFault("push", m.sp, k)
					goto fault
				}
				m.sp--
				m.mem[m.sp] = m.regs[in.Ra]
			case isa.POP:
				if int(m.sp) >= len(m.mem) {
					err = stackFault("pop", m.sp, k)
					goto fault
				}
				m.regs[in.Rd] = m.mem[m.sp]
				m.sp++
			case isa.SPADJ:
				ns := m.sp + in.Imm
				if ns < 0 || int(ns) > len(m.mem) {
					err = fmt.Errorf("%w: spadj to %d at pc=%d", ErrStackFault, ns, k)
					goto fault
				}
				m.sp = ns
			case isa.GETSP:
				m.regs[in.Rd] = uint16(m.sp)
			case isa.IN:
				switch in.Imm {
				case isa.PortTimer:
					m.regs[in.Rd] = uint16((tstart-head[k].span)/uint64(m.cfg.TickDiv) + m.cfg.ClockOffsetTicks)
				case isa.PortADC:
					// Saturate at the converter rails, exactly as Step does.
					m.regs[in.Rd] = isa.ClampADC(m.cfg.Sensor.Next())
					m.stats.SensorReads++
				case isa.PortRNG:
					m.regs[in.Rd] = m.cfg.Entropy.Next()
				case isa.PortRadioCtl:
					m.regs[in.Rd] = 1 // last TX always succeeded in this model
				default:
					m.regs[in.Rd] = 0
				}
			case isa.OUT:
				v := m.regs[in.Ra]
				switch in.Imm {
				case isa.PortLED:
					m.ledState = v
					m.stats.LEDWrites++
				case isa.PortRadioData:
					m.radioBuf = append(m.radioBuf, v)
				case isa.PortRadioCtl:
					if v != 0 {
						m.stats.RadioPackets++
						m.stats.RadioWords += uint64(len(m.radioBuf))
						m.radioBuf = m.radioBuf[:0]
					}
				case isa.PortDebug:
					m.debugOut = append(m.debugOut, v)
				}
			case isa.TRACE:
				if len(m.trace) >= m.cfg.MaxTraceEvents {
					err = fmt.Errorf("%w: %d events", ErrTraceOverflow, len(m.trace))
					goto fault
				}
				tick := (tstart-head[k].span)/uint64(m.cfg.TickDiv) + m.cfg.ClockOffsetTicks
				m.trace = append(m.trace, TraceEvent{ID: in.Imm, Tick: tick})
			case isa.PROFCNT:
				m.profCnt[k]++

			// The fused frame idioms (see fusesStore and fusesBinop for
			// the register constraints that keep each one exactly
			// sequential). Every register and memory write lands before
			// the next sub-instruction can fault, so a fault at
			// sub-instruction j leaves the state the reference core leaves
			// at pc k+j.
			case opCopy: // ld x,[a+i]; st [c+j],x
				st := &dec[k+1]
				base := m.regs[st.Ra]
				addr := int32(int16(m.regs[in.Ra])) + in.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("load", addr, k)
					goto fault
				}
				v := m.mem[int(addr)]
				m.regs[in.Rd] = v
				k++
				addr = int32(int16(base)) + st.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("store", addr, k)
					goto fault
				}
				m.mem[int(addr)] = v
			case opConst: // ldi x,imm; st [c+j],x
				st := &dec[k+1]
				v := uint16(in.Imm)
				m.regs[in.Rd] = v
				k++
				addr := int32(int16(m.regs[st.Ra])) + st.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("store", addr, k)
					goto fault
				}
				m.mem[int(addr)] = v
			case opBinop: // ld x,[a+i]; ld y,[b+j]; OP x,x,y; st [c+l],x
				q := dec[k : k+4 : k+4]
				b2, b3 := m.regs[q[1].Ra], m.regs[q[3].Ra]
				addr := int32(int16(m.regs[in.Ra])) + in.Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("load", addr, k)
					goto fault
				}
				x := m.mem[int(addr)]
				m.regs[in.Rd] = x
				k++
				addr = int32(int16(b2)) + q[1].Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("load", addr, k)
					goto fault
				}
				y := m.mem[int(addr)]
				m.regs[q[1].Rd] = y
				k++
				switch q[2].Op {
				case isa.ADD:
					x += y
				case isa.SUB:
					x -= y
				case isa.MUL:
					x = uint16(int16(x) * int16(y))
				case isa.DIV:
					if y == 0 {
						err = divFault(k)
						goto fault
					}
					x = uint16(int16(x) / int16(y))
				case isa.MOD:
					if y == 0 {
						err = divFault(k)
						goto fault
					}
					x = uint16(int16(x) % int16(y))
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
				case isa.SEQ:
					x = boolWord(x == y)
				}
				m.regs[in.Rd] = x
				k++
				addr = int32(int16(b3)) + q[3].Imm
				if uint(int(addr)) >= uint(len(m.mem)) {
					err = memFault("store", addr, k)
					goto fault
				}
				m.mem[int(addr)] = x

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
			case isa.CALL:
				if m.sp <= 0 {
					err = stackFault("call", m.sp, k)
					goto fault
				}
				m.sp--
				m.mem[m.sp] = uint16(k + 1)
				m.stats.Calls++
				cycles, pc = tstart+uint64(m.costs[isa.CALL]), in.Imm
				continue blocks
			case isa.RET:
				if int(m.sp) >= len(m.mem) {
					err = stackFault("ret", m.sp, k)
					goto fault
				}
				next := int32(m.mem[m.sp])
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

		branch:
			// A conditional branch at k, its outcome decided per opcode
			// above: one dispatch per branch, not two.
			bpc := int32(k)
			cost := uint64(m.costs[in.Op])
			next := bpc + 1
			m.stats.CondBranches++
			bs := &m.branchStat[k]
			var predicted bool
			switch m.predKind {
			case predNotTaken:
				// predicted stays false
			case predBTFN:
				predicted = in.Imm <= bpc
			case predBimodal:
				predicted = m.bimodal.table[bpc&m.bimodal.mask] >= 2
			default:
				predicted = m.cfg.Predictor.PredictTaken(bpc, *in)
			}
			if taken {
				m.stats.TakenBranches++
				bs.Taken++
				next = in.Imm
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

// The fault errors both cores report, formatted identically. They stay
// out of line so the dispatch loop's cold paths are only a call.

//go:noinline
func divFault(pc int) error { return fmt.Errorf("%w at pc=%d", ErrDivByZero, pc) }

//go:noinline
func memFault(kind string, addr int32, pc int) error {
	return fmt.Errorf("%w: %s addr %d at pc=%d", ErrMemFault, kind, addr, pc)
}

//go:noinline
func stackFault(kind string, sp int32, pc int) error {
	return fmt.Errorf("%w: %s with sp=%d at pc=%d", ErrStackFault, kind, sp, pc)
}
