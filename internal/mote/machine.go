// Package mote simulates the M16 sensor mote: a cycle-level interpreter of
// the M16 ISA with a static-prediction pipeline model, word-addressed RAM,
// and the peripherals a sensor-network program touches (hardware timer,
// ADC-connected sensor, entropy source, LEDs, radio) plus the trace buffer
// and profiling counters the instrumented builds write into.
//
// The simulator is the stand-in for the physical motes of the paper: it
// supplies ground-truth edge counts (the oracle the estimators are judged
// against), the coarse hardware timer the Code Tomography measurements are
// quantized by, and the taken-branch/misprediction penalties that code
// placement optimizes.
package mote

import (
	"errors"
	"fmt"

	"codetomo/internal/isa"
)

// Errors the machine can stop with.
var (
	ErrDivByZero     = errors.New("mote: division by zero")
	ErrMemFault      = errors.New("mote: data memory access out of range")
	ErrStackFault    = errors.New("mote: stack overflow or underflow")
	ErrPCFault       = errors.New("mote: program counter out of range")
	ErrCycleBudget   = errors.New("mote: cycle budget exhausted")
	ErrTraceOverflow = errors.New("mote: trace buffer overflow")
	ErrBadInstr      = errors.New("mote: illegal instruction")
)

// SampleSource produces the nondeterministic 16-bit values a peripheral
// feeds the program (ADC readings, entropy words). Package workload
// provides implementations.
type SampleSource interface {
	Next() uint16
}

// zeroSource is the default for unconnected peripherals.
type zeroSource struct{}

func (zeroSource) Next() uint16 { return 0 }

// TraceEvent is one record in the hardware trace buffer: the TRACE
// instruction's ID operand and the timer tick at which it executed. The
// tick is kept at full width here — decoding the mote's 16-bit rollover
// log offline is standard practice and not part of what the estimator must
// invert.
type TraceEvent struct {
	ID   int32
	Tick uint64
}

// EpochMarkID is the reserved trace ID logged when the machine reboots
// after a fault-injected reset. Compiler-generated TRACE ids are
// non-negative, so decoders can treat the marker as an epoch boundary:
// invocation frames open at the crash can never complete and must be
// flushed rather than matched against post-reboot events.
const EpochMarkID int32 = -1

// ResetEvent schedules one fault-injected reset. When the cycle counter
// reaches AtCycle the CPU reboots: pc, sp, registers, and RAM are cleared
// and execution restarts at the reset vector (which re-runs global
// initialization) after DownCycles of dead time. The trace buffer models
// the mote's flash/radio journal and survives the reset, with an
// EpochMarkID record separating the epochs. Package fault derives these
// schedules deterministically from a seed.
type ResetEvent struct {
	AtCycle    uint64
	DownCycles uint64
}

// BranchStat accumulates ground-truth outcome counts for one static
// conditional branch, keyed by its program address.
type BranchStat struct {
	Taken    uint64
	NotTaken uint64
	Mispred  uint64
}

// Stats aggregates architectural event counts for one run.
type Stats struct {
	Cycles        uint64
	Instructions  uint64
	CondBranches  uint64
	TakenBranches uint64
	Mispredicts   uint64
	// PageCrossings counts control-flow redirects (executed JMPs and taken
	// conditional branches) that landed on a different flash page and paid
	// Cost.PageCrossPenalty. Always zero when the penalty is zero.
	PageCrossings uint64
	Calls         uint64
	LoadsStores   uint64
	RadioPackets  uint64
	RadioWords    uint64
	LEDWrites     uint64
	SensorReads   uint64
	// Resets counts fault-injected reboots taken; DownCycles is the total
	// dead time they cost (included in Cycles). Under power mode DownCycles
	// also includes capacitor recharge waits and restore overhead.
	Resets     uint64
	DownCycles uint64
	// Intermittent-execution counters, all zero on mains power (see
	// power.go). PowerFailures counts brownout outages; Restores counts
	// the subset of boots (power failures and watchdog resets) that
	// resumed from a durable checkpoint rather than cold; Checkpoints
	// counts images written. HarvestedUJ is energy actually banked in the
	// capacitor (spill on a full capacitor is excluded) and DrainedUJ is
	// energy consumed through the EnergyModel plus checkpoint costs.
	// LostVolatileEvents counts trace events discarded from the
	// uncommitted volatile window across all outages.
	PowerFailures      uint64
	Checkpoints        uint64
	Restores           uint64
	LostVolatileEvents uint64
	HarvestedUJ        float64
	DrainedUJ          float64
}

// MispredictRate is Mispredicts / CondBranches (0 when no branches ran).
func (s Stats) MispredictRate() float64 {
	return float64(s.Mispredicts) / float64(max(s.CondBranches, 1))
}

// Config sets the machine's architectural parameters.
type Config struct {
	// RAMWords is the size of data memory in 16-bit words.
	RAMWords int
	// TickDiv is the timer prescaler: one timer tick per TickDiv cycles.
	// This is the quantization the tomography estimator must see through.
	TickDiv int
	// Predictor is the static branch prediction policy.
	Predictor Predictor
	// Cost is the cycle/size table; nil means isa.DefaultCostModel().
	Cost *isa.CostModel
	// MaxTraceEvents bounds the trace buffer (0 = default 1<<22).
	MaxTraceEvents int
	// ClockOffsetTicks skews the timer's absolute value, modeling the
	// unsynchronized clocks of a deployed fleet. Durations are tick
	// differences, so the offset shifts logged timestamps without touching
	// measured durations.
	ClockOffsetTicks uint64
	// Resets schedules fault-injected watchdog resets and brownouts, in
	// ascending AtCycle order (package fault builds these deterministically
	// from a seed). Empty means a healthy mote.
	Resets []ResetEvent
	// Sensor and Entropy feed the ADC and RNG ports.
	Sensor  SampleSource
	Entropy SampleSource
	// Power, when non-nil, runs the mote from a harvested-energy capacitor
	// instead of mains: instructions drain charge through the energy
	// model, and the machine power-fails (checkpoint/restore or cold boot)
	// whenever charge reaches the brownout floor. See power.go.
	Power *PowerConfig
}

// DefaultConfig returns the configuration used across the evaluation:
// 4K words of RAM, the part's timer prescaler (isa.DefaultTickDiv), and
// predict-not-taken.
func DefaultConfig() Config {
	return Config{
		RAMWords:  isa.DefaultRAMWords,
		TickDiv:   isa.DefaultTickDiv,
		Predictor: StaticNotTaken{},
		Cost:      isa.DefaultCostModel(),
	}
}

// Machine is one simulated mote.
type Machine struct {
	prog []isa.Instr
	cfg  Config

	pc   int32
	sp   int32
	regs [16]uint16
	mem  []uint16

	halted   bool
	resetIdx int // next pending entry of cfg.Resets

	// Peripherals.
	ledState   uint16
	radioBuf   []uint16
	debugOut   []uint16
	trace      []TraceEvent
	profCnt    []uint64     // dense PROFCNT hit counts, indexed by pc
	branchStat []BranchStat // dense ground-truth table, indexed by pc

	// Precomputed state shared by both cores (see run.go): the program's
	// block table, the per-opcode cycle table padded to the full opcode
	// byte range so a uint8 index needs no bounds check, the
	// misprediction and page-cross penalties widened once, and the
	// devirtualized predictor.
	code      *blockCode
	costs     [256]uint32
	penalty   uint64
	pagePen   uint64
	predKind  uint8
	bimodal   *Bimodal
	trainable TrainablePredictor

	// Intermittent-execution state (nil power = mains, see power.go).
	// durableLen is the committed-trace watermark: events at or beyond it
	// live in the volatile RAM window and die with a power loss.
	power        *powerState
	durableLen   int
	traceDepth   int
	invSinceCkpt int
	ckptImage    []byte

	stats Stats
}

// New creates a machine loaded with the given program. All mutable state
// lives behind Reset so a machine can later be reinitialized in place for
// another run of the same program without reallocating (see reset.go).
func New(prog []isa.Instr, cfg Config) *Machine {
	m := &Machine{prog: prog}
	m.Reset(cfg)
	return m
}

// Stats returns the architectural counters accumulated so far.
func (m *Machine) Stats() Stats { return m.stats }

// SP returns the current stack pointer (words; the stack grows down from
// Config.RAMWords). Tests compare the observed low-water mark against the
// static stack-depth bound.
func (m *Machine) SP() int32 { return m.sp }

// Trace returns the trace buffer (TRACE instruction log).
func (m *Machine) Trace() []TraceEvent { return m.trace }

// ProfileCounters returns the PROFCNT counters keyed by counter id. The
// map is a snapshot built per call over the machine's dense per-pc hit
// table (the same dense-inside, map-at-the-boundary shape as BranchStats);
// PROFCNT sites sharing an id sum into one entry, exactly as the original
// live map did.
func (m *Machine) ProfileCounters() map[int32]uint64 {
	out := make(map[int32]uint64)
	for pc, n := range m.profCnt {
		if n != 0 {
			out[m.prog[pc].Imm] += n
		}
	}
	return out
}

// BranchStats returns ground-truth per-branch outcome counts keyed by the
// branch instruction's address. The map is a view built per call over the
// machine's dense per-pc table; the *BranchStat values alias that table,
// so they keep updating if the machine runs further.
func (m *Machine) BranchStats() map[int32]*BranchStat {
	out := make(map[int32]*BranchStat)
	for pc := range m.branchStat {
		if st := &m.branchStat[pc]; st.Taken != 0 || st.NotTaken != 0 {
			out[int32(pc)] = st
		}
	}
	return out
}

// DebugOutput returns the words written to the debug port.
func (m *Machine) DebugOutput() []uint16 { return m.debugOut }

// LED returns the current LED state.
func (m *Machine) LED() uint16 { return m.ledState }

// Halted reports whether the program executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Tick returns the current timer tick (cycles / TickDiv plus the mote's
// clock offset) at full width.
func (m *Machine) Tick() uint64 {
	return m.stats.Cycles/uint64(m.cfg.TickDiv) + m.cfg.ClockOffsetTicks
}

// Reg returns the value of register r (for tests and tools).
func (m *Machine) Reg(r isa.Reg) uint16 { return m.regs[r] }

// PC returns the current program counter (for sampling profilers and
// debuggers).
func (m *Machine) PC() int32 { return m.pc }

// Mem returns the value of data word addr (for tests and tools).
func (m *Machine) Mem(addr int) (uint16, error) {
	if addr < 0 || addr >= len(m.mem) {
		return 0, fmt.Errorf("%w: addr %d", ErrMemFault, addr)
	}
	return m.mem[addr], nil
}

// RunReference executes until HALT, an execution fault, or the cycle
// budget is exhausted, one Step call per instruction. It is the reference
// core: Run (the block core, see run.go) must stop with the same error at
// the same pc after the same cycle count, a contract pinned by the
// differential property test and FuzzFastCore. A HALT stop returns nil;
// budget exhaustion returns ErrCycleBudget wrapped with position info.
func (m *Machine) RunReference(maxCycles uint64) error {
	for !m.halted {
		if m.stats.Cycles >= maxCycles {
			return fmt.Errorf("%w at pc=%d after %d instructions", ErrCycleBudget, m.pc, m.stats.Instructions)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes a single instruction on the reference core, or takes a
// pending fault-injected reset when its scheduled cycle has been reached.
// It is the public single-step API (sampling profilers and debuggers hook
// it); the batch path is Run's block loop. Under power mode (Config.Power
// non-nil) each step additionally runs the capacitor accounting in
// power.go.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.resetIdx < len(m.cfg.Resets) && m.stats.Cycles >= m.cfg.Resets[m.resetIdx].AtCycle {
		down := m.cfg.Resets[m.resetIdx].DownCycles
		m.resetIdx++
		if m.power != nil {
			m.powerAwareReset(down)
		} else {
			m.reboot(down)
		}
		return nil
	}
	if m.power != nil {
		return m.stepPowered()
	}
	return m.stepInstr()
}

// stepInstr executes exactly one instruction (no reset or power checks):
// the shared core under Step and stepPowered.
func (m *Machine) stepInstr() error {
	if m.pc < 0 || int(m.pc) >= len(m.prog) {
		return fmt.Errorf("%w: pc=%d", ErrPCFault, m.pc)
	}
	in := m.prog[m.pc]
	cost := uint64(m.costs[in.Op])
	nextPC := m.pc + 1
	m.stats.Instructions++

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
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
			return divFault(int(m.pc))
		}
		m.regs[in.Rd] = uint16(int16(m.regs[in.Ra]) / int16(m.regs[in.Rb]))
	case isa.MOD:
		if m.regs[in.Rb] == 0 {
			return divFault(int(m.pc))
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
		if addr < 0 || int(addr) >= len(m.mem) {
			return memFault("load", addr, int(m.pc))
		}
		m.regs[in.Rd] = m.mem[addr]
		m.stats.LoadsStores++
	case isa.ST:
		addr := int32(int16(m.regs[in.Ra])) + in.Imm
		if addr < 0 || int(addr) >= len(m.mem) {
			return memFault("store", addr, int(m.pc))
		}
		m.mem[addr] = m.regs[in.Rb]
		m.stats.LoadsStores++
	case isa.PUSH:
		if m.sp <= 0 {
			return stackFault("push", m.sp, int(m.pc))
		}
		m.sp--
		m.mem[m.sp] = m.regs[in.Ra]
	case isa.POP:
		if int(m.sp) >= len(m.mem) {
			return stackFault("pop", m.sp, int(m.pc))
		}
		m.regs[in.Rd] = m.mem[m.sp]
		m.sp++
	case isa.SPADJ:
		ns := m.sp + in.Imm
		if ns < 0 || int(ns) > len(m.mem) {
			return fmt.Errorf("%w: spadj to %d at pc=%d", ErrStackFault, ns, m.pc)
		}
		m.sp = ns
	case isa.GETSP:
		m.regs[in.Rd] = uint16(m.sp)
	case isa.JMP:
		nextPC = in.Imm
		if pageOf := m.code.pageOf; pageOf != nil && uint(nextPC) < uint(len(pageOf)) && pageOf[nextPC] != pageOf[m.pc] {
			cost += m.pagePen
			m.stats.PageCrossings++
		}
	case isa.BZ, isa.BNZ, isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		taken := false
		switch in.Op {
		case isa.BZ:
			taken = m.regs[in.Ra] == 0
		case isa.BNZ:
			taken = m.regs[in.Ra] != 0
		case isa.BEQ:
			taken = m.regs[in.Ra] == m.regs[in.Rb]
		case isa.BNE:
			taken = m.regs[in.Ra] != m.regs[in.Rb]
		case isa.BLT:
			taken = int16(m.regs[in.Ra]) < int16(m.regs[in.Rb])
		case isa.BGE:
			taken = int16(m.regs[in.Ra]) >= int16(m.regs[in.Rb])
		}
		m.stats.CondBranches++
		st := &m.branchStat[m.pc]
		predictedTaken := m.cfg.Predictor.PredictTaken(m.pc, in)
		if taken {
			m.stats.TakenBranches++
			st.Taken++
			nextPC = in.Imm
			if pageOf := m.code.pageOf; pageOf != nil && uint(nextPC) < uint(len(pageOf)) && pageOf[nextPC] != pageOf[m.pc] {
				cost += m.pagePen
				m.stats.PageCrossings++
			}
		} else {
			st.NotTaken++
		}
		if predictedTaken != taken {
			m.stats.Mispredicts++
			st.Mispred++
			cost += uint64(m.cfg.Cost.TakenPenalty)
		}
		if tp, ok := m.cfg.Predictor.(TrainablePredictor); ok {
			tp.Train(m.pc, taken)
		}
	case isa.CALL:
		if m.sp <= 0 {
			return stackFault("call", m.sp, int(m.pc))
		}
		m.sp--
		m.mem[m.sp] = uint16(m.pc + 1)
		nextPC = in.Imm
		m.stats.Calls++
	case isa.RET:
		if int(m.sp) >= len(m.mem) {
			return stackFault("ret", m.sp, int(m.pc))
		}
		nextPC = int32(m.mem[m.sp])
		m.sp++
	case isa.IN:
		switch in.Imm {
		case isa.PortTimer:
			m.regs[in.Rd] = uint16(m.Tick())
		case isa.PortADC:
			// The ADC saturates at its rails: readings are architecturally
			// confined to [0, isa.ADCMaxReading], which the static
			// value-range analysis relies on.
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
			return fmt.Errorf("%w: %d events", ErrTraceOverflow, len(m.trace))
		}
		m.trace = append(m.trace, TraceEvent{ID: in.Imm, Tick: m.Tick()})
	case isa.PROFCNT:
		m.profCnt[m.pc]++
	default:
		return fmt.Errorf("%w: opcode %v at pc=%d", ErrBadInstr, in.Op, m.pc)
	}

	m.stats.Cycles += cost
	m.pc = nextPC
	return nil
}

// reboot models a watchdog reset or brownout recovery: the CPU and RAM
// lose all state and execution restarts at the reset vector (pc 0, where
// the startup stub re-runs global initialization) after downCycles of
// dead time. The trace buffer models the flash/radio journal, which
// survives resets; an EpochMarkID record separates the epochs so decoders
// never pair an enter logged before the crash with an exit logged after.
func (m *Machine) reboot(downCycles uint64) {
	m.clearVolatileState()
	m.stats.Cycles += downCycles
	m.stats.Resets++
	m.stats.DownCycles += downCycles
	if len(m.trace) < m.cfg.MaxTraceEvents {
		m.trace = append(m.trace, TraceEvent{ID: EpochMarkID, Tick: m.Tick()})
	}
}

func boolWord(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
