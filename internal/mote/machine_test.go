package mote

import (
	"errors"
	"testing"

	"codetomo/internal/isa"
)

// run executes a hand-assembled program to completion and returns the machine.
func run(t *testing.T, prog []isa.Instr, cfg Config) *Machine {
	t.Helper()
	m := New(prog, cfg)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return m
}

func TestALUOps(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 7},
		{Op: isa.LDI, Rd: 2, Imm: 3},
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2},  // 10
		{Op: isa.SUB, Rd: 4, Ra: 1, Rb: 2},  // 4
		{Op: isa.MUL, Rd: 5, Ra: 1, Rb: 2},  // 21
		{Op: isa.DIV, Rd: 6, Ra: 1, Rb: 2},  // 2
		{Op: isa.MOD, Rd: 7, Ra: 1, Rb: 2},  // 1
		{Op: isa.AND, Rd: 8, Ra: 1, Rb: 2},  // 3
		{Op: isa.OR, Rd: 9, Ra: 1, Rb: 2},   // 7
		{Op: isa.XOR, Rd: 10, Ra: 1, Rb: 2}, // 4
		{Op: isa.SHL, Rd: 11, Ra: 1, Rb: 2}, // 56
		{Op: isa.SHR, Rd: 12, Ra: 1, Rb: 2}, // 0
		{Op: isa.HALT},
	}
	m := run(t, prog, DefaultConfig())
	want := map[isa.Reg]uint16{3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4, 11: 56, 12: 0}
	for r, v := range want {
		if m.regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.regs[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: -6}, // 0xFFFA
		{Op: isa.LDI, Rd: 2, Imm: 4},
		{Op: isa.DIV, Rd: 3, Ra: 1, Rb: 2},  // -1
		{Op: isa.MOD, Rd: 4, Ra: 1, Rb: 2},  // -2
		{Op: isa.SLT, Rd: 5, Ra: 1, Rb: 2},  // 1 (signed -6 < 4)
		{Op: isa.SLTU, Rd: 6, Ra: 1, Rb: 2}, // 0 (0xFFFA > 4)
		{Op: isa.SEQ, Rd: 7, Ra: 1, Rb: 1},  // 1
		{Op: isa.LDI, Rd: 8, Imm: 1},
		{Op: isa.SAR, Rd: 9, Ra: 1, Rb: 8},    // -3
		{Op: isa.ADDI, Rd: 10, Ra: 1, Imm: 6}, // 0
		{Op: isa.XORI, Rd: 11, Ra: 7, Imm: 1}, // 0
		{Op: isa.HALT},
	}
	m := run(t, prog, DefaultConfig())
	if int16(m.regs[3]) != -1 || int16(m.regs[4]) != -2 {
		t.Errorf("div/mod = %d/%d", int16(m.regs[3]), int16(m.regs[4]))
	}
	if m.regs[5] != 1 || m.regs[6] != 0 || m.regs[7] != 1 {
		t.Errorf("slt/sltu/seq = %d/%d/%d", m.regs[5], m.regs[6], m.regs[7])
	}
	if int16(m.regs[9]) != -3 {
		t.Errorf("sar = %d, want -3", int16(m.regs[9]))
	}
	if m.regs[10] != 0 || m.regs[11] != 0 {
		t.Errorf("addi/xori = %d/%d", m.regs[10], m.regs[11])
	}
}

func TestMemoryAndStack(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 100},
		{Op: isa.LDI, Rd: 2, Imm: 1234},
		{Op: isa.ST, Ra: 1, Imm: 5, Rb: 2}, // mem[105] = 1234
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 5}, // r3 = 1234
		{Op: isa.PUSH, Ra: 3},
		{Op: isa.LDI, Rd: 3, Imm: 0},
		{Op: isa.POP, Rd: 4},
		{Op: isa.GETSP, Rd: 5},
		{Op: isa.HALT},
	}
	m := run(t, prog, DefaultConfig())
	if v := m.mem[105]; v != 1234 {
		t.Errorf("mem[105] = %d", v)
	}
	if m.regs[4] != 1234 {
		t.Errorf("pop = %d", m.regs[4])
	}
	if m.regs[5] != 4096 {
		t.Errorf("sp = %d, want 4096", m.regs[5])
	}
	if m.Stats().LoadsStores != 2 {
		t.Errorf("loads+stores = %d", m.Stats().LoadsStores)
	}
}

func TestCallRet(t *testing.T) {
	// main: LDI r1,5; CALL 4; HALT at 2... layout:
	// 0: LDI r1, 5
	// 1: CALL 3
	// 2: HALT
	// 3: ADDI r1, r1, 1
	// 4: RET
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 5},
		{Op: isa.CALL, Imm: 3},
		{Op: isa.HALT},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.RET},
	}
	m := run(t, prog, DefaultConfig())
	if m.regs[1] != 6 {
		t.Errorf("r1 = %d, want 6", m.regs[1])
	}
	if m.Stats().Calls != 1 {
		t.Errorf("calls = %d", m.Stats().Calls)
	}
}

func TestBranchesAndPrediction(t *testing.T) {
	// Loop 10 times with a backward BNZ. Under not-taken prediction the
	// taken back-branch mispredicts every taken execution (9 times),
	// under BTFN it mispredicts only the final not-taken one (1 time).
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 10},
		{Op: isa.LDI, Rd: 2, Imm: -1},
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2}, // 2: r1--
		{Op: isa.BNZ, Ra: 1, Imm: 2},       // 3: loop while r1 != 0
		{Op: isa.HALT},
	}
	cfgNT := DefaultConfig()
	m1 := run(t, prog, cfgNT)
	if m1.Stats().CondBranches != 10 || m1.Stats().TakenBranches != 9 {
		t.Fatalf("branches = %d taken = %d", m1.Stats().CondBranches, m1.Stats().TakenBranches)
	}
	if m1.Stats().Mispredicts != 9 {
		t.Errorf("not-taken mispredicts = %d, want 9", m1.Stats().Mispredicts)
	}
	st := m1.BranchStats()[3]
	if st == nil || st.Taken != 9 || st.NotTaken != 1 {
		t.Errorf("branch stat = %+v", st)
	}

	cfgBTFN := DefaultConfig()
	cfgBTFN.Predictor = BTFN{}
	m2 := run(t, prog, cfgBTFN)
	if m2.Stats().Mispredicts != 1 {
		t.Errorf("btfn mispredicts = %d, want 1", m2.Stats().Mispredicts)
	}
	// Misprediction penalty must show in cycles: NT run pays 9 penalties,
	// BTFN pays 1; difference = 8 × penalty.
	diff := m1.Stats().Cycles - m2.Stats().Cycles
	if diff != uint64(8*cfgNT.Cost.TakenPenalty) {
		t.Errorf("cycle difference = %d, want %d", diff, 8*cfgNT.Cost.TakenPenalty)
	}
}

func TestCompareBranches(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 3},
		{Op: isa.LDI, Rd: 2, Imm: 5},
		{Op: isa.BLT, Ra: 1, Rb: 2, Imm: 5}, // taken
		{Op: isa.LDI, Rd: 3, Imm: 99},       // skipped
		{Op: isa.HALT},
		{Op: isa.BGE, Ra: 2, Rb: 1, Imm: 8}, // taken
		{Op: isa.LDI, Rd: 4, Imm: 99},       // skipped
		{Op: isa.HALT},
		{Op: isa.BEQ, Ra: 1, Rb: 1, Imm: 11}, // taken
		{Op: isa.LDI, Rd: 5, Imm: 99},
		{Op: isa.HALT},
		{Op: isa.BNE, Ra: 1, Rb: 1, Imm: 0}, // not taken
		{Op: isa.HALT},
	}
	m := run(t, prog, DefaultConfig())
	if m.regs[3] == 99 || m.regs[4] == 99 || m.regs[5] == 99 {
		t.Fatal("branch fell through when it should have been taken")
	}
	if m.Stats().TakenBranches != 3 || m.Stats().CondBranches != 4 {
		t.Fatalf("taken/cond = %d/%d", m.Stats().TakenBranches, m.Stats().CondBranches)
	}
}

type seqSource struct {
	vals []uint16
	i    int
}

func (s *seqSource) Next() uint16 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func TestPeripherals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sensor = &seqSource{vals: []uint16{11, 22}}
	cfg.Entropy = &seqSource{vals: []uint16{7}}
	prog := []isa.Instr{
		{Op: isa.IN, Rd: 1, Imm: isa.PortADC},
		{Op: isa.IN, Rd: 2, Imm: isa.PortADC},
		{Op: isa.IN, Rd: 3, Imm: isa.PortRNG},
		{Op: isa.OUT, Imm: isa.PortLED, Ra: 1},
		{Op: isa.OUT, Imm: isa.PortRadioData, Ra: 1},
		{Op: isa.OUT, Imm: isa.PortRadioData, Ra: 2},
		{Op: isa.LDI, Rd: 4, Imm: 1},
		{Op: isa.OUT, Imm: isa.PortRadioCtl, Ra: 4},
		{Op: isa.OUT, Imm: isa.PortDebug, Ra: 3},
		{Op: isa.HALT},
	}
	m := run(t, prog, cfg)
	if m.regs[1] != 11 || m.regs[2] != 22 || m.regs[3] != 7 {
		t.Fatalf("peripheral reads = %d/%d/%d", m.regs[1], m.regs[2], m.regs[3])
	}
	if m.LED() != 11 {
		t.Errorf("led = %d", m.LED())
	}
	s := m.Stats()
	if s.RadioPackets != 1 || s.RadioWords != 2 || s.SensorReads != 2 || s.LEDWrites != 1 {
		t.Errorf("stats = %+v", s)
	}
	if len(m.DebugOutput()) != 1 || m.DebugOutput()[0] != 7 {
		t.Errorf("debug = %v", m.DebugOutput())
	}
}

func TestTimerAndTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickDiv = 4
	prog := []isa.Instr{
		{Op: isa.TRACE, Imm: 1},
		{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
		{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
		{Op: isa.TRACE, Imm: -1},
		{Op: isa.IN, Rd: 1, Imm: isa.PortTimer},
		{Op: isa.HALT},
	}
	m := run(t, prog, cfg)
	tr := m.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace events = %d", len(tr))
	}
	if tr[0].ID != 1 || tr[1].ID != -1 {
		t.Fatalf("trace ids = %v", tr)
	}
	// First TRACE at cycle 0 → tick 0. Second after TRACE(5)+7 NOPs = 12
	// cycles → tick 3.
	if tr[0].Tick != 0 || tr[1].Tick != 3 {
		t.Fatalf("trace ticks = %d, %d; want 0, 3", tr[0].Tick, tr[1].Tick)
	}
}

func TestClockOffsetSkewsTimestampsNotDurations(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.TRACE, Imm: 1},
		{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
		{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
		{Op: isa.TRACE, Imm: -1},
		{Op: isa.HALT},
	}
	cfg := DefaultConfig()
	cfg.TickDiv = 4
	base := run(t, prog, cfg)
	cfg.ClockOffsetTicks = 1_000_000
	skewed := run(t, prog, cfg)

	bt, st := base.Trace(), skewed.Trace()
	if len(bt) != 2 || len(st) != 2 {
		t.Fatalf("trace lengths %d, %d", len(bt), len(st))
	}
	for i := range bt {
		if st[i].Tick != bt[i].Tick+1_000_000 {
			t.Fatalf("event %d: skewed tick %d, want %d", i, st[i].Tick, bt[i].Tick+1_000_000)
		}
	}
	// Durations — what the estimator consumes — are offset-invariant.
	if st[1].Tick-st[0].Tick != bt[1].Tick-bt[0].Tick {
		t.Fatal("clock offset changed a duration")
	}
}

func TestProfileCounters(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 3},
		{Op: isa.LDI, Rd: 2, Imm: -1},
		{Op: isa.PROFCNT, Imm: 42}, // 2
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
	m := run(t, prog, DefaultConfig())
	if m.ProfileCounters()[42] != 3 {
		t.Fatalf("counter = %d, want 3", m.ProfileCounters()[42])
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		prog []isa.Instr
		want error
	}{
		{"div0", []isa.Instr{{Op: isa.DIV, Rd: 1, Ra: 1, Rb: 2}}, ErrDivByZero},
		{"mod0", []isa.Instr{{Op: isa.MOD, Rd: 1, Ra: 1, Rb: 2}}, ErrDivByZero},
		{"load oob", []isa.Instr{{Op: isa.LDI, Rd: 1, Imm: 9000}, {Op: isa.LD, Rd: 2, Ra: 1}}, ErrMemFault},
		{"store neg", []isa.Instr{{Op: isa.LDI, Rd: 1, Imm: -1}, {Op: isa.ST, Ra: 1, Rb: 2}}, ErrMemFault},
		{"pop empty", []isa.Instr{{Op: isa.POP, Rd: 1}}, ErrStackFault},
		{"pc runs off end", []isa.Instr{{Op: isa.NOP}}, ErrPCFault},
		{"jump oob", []isa.Instr{{Op: isa.JMP, Imm: 99}}, ErrPCFault},
	}
	for _, c := range cases {
		m := New(c.prog, DefaultConfig())
		err := m.Run(1000)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// A scheduled watchdog reset reboots the CPU mid-run: the trace buffer
// keeps both epochs separated by an EpochMarkID record, the clock keeps
// advancing through the dead time, and the program re-runs from the reset
// vector.
func TestWatchdogResetTraceEpochs(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.TRACE, Imm: 0}, // enter proc 0
		{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
		{Op: isa.TRACE, Imm: 1}, // exit proc 0
		{Op: isa.HALT},
	}
	cfg := DefaultConfig()
	// Fires during the NOP run, truncating the first invocation.
	cfg.Resets = []ResetEvent{{AtCycle: 7, DownCycles: 1000}}
	m := New(prog, cfg)
	if err := m.Run(100_000); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	st := m.Stats()
	if st.Resets != 1 || st.DownCycles != 1000 {
		t.Fatalf("Resets = %d, DownCycles = %d", st.Resets, st.DownCycles)
	}
	tr := m.Trace()
	ids := make([]int32, len(tr))
	for i, ev := range tr {
		ids[i] = ev.ID
	}
	want := []int32{0, EpochMarkID, 0, 1}
	if len(ids) != len(want) {
		t.Fatalf("trace ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("trace ids = %v, want %v", ids, want)
		}
	}
	// The dead time advances the clock: the re-run starts after the mark.
	if tr[2].Tick <= tr[0].Tick {
		t.Fatalf("post-reboot enter at tick %d, pre-crash enter at %d", tr[2].Tick, tr[0].Tick)
	}
}

// Reboot must clear RAM, not just the program counter: this program HALTs
// only if a flag it stored before the crash survives into the next epoch.
// A correct reset makes it spin forever and exhaust the cycle budget.
func TestWatchdogResetClearsMemory(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LD, Rd: 1, Imm: 100}, // r1 = mem[100]
		{Op: isa.BNZ, Ra: 1, Imm: 5},  // flag survived a reboot → HALT
		{Op: isa.LDI, Rd: 2, Imm: 1},  //
		{Op: isa.ST, Imm: 100, Rb: 2}, // mem[100] = 1
		{Op: isa.JMP, Imm: 4},         // spin until the watchdog fires
		{Op: isa.HALT},
	}
	cfg := DefaultConfig()
	cfg.Resets = []ResetEvent{{AtCycle: 50, DownCycles: 10}}
	m := New(prog, cfg)
	err := m.Run(10_000)
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget (nil means RAM survived the reboot)", err)
	}
	if m.Stats().Resets != 1 {
		t.Fatalf("Resets = %d, want 1", m.Stats().Resets)
	}
}

func TestCycleBudget(t *testing.T) {
	prog := []isa.Instr{{Op: isa.JMP, Imm: 0}}
	m := New(prog, DefaultConfig())
	if err := m.Run(100); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want budget", err)
	}
}

func TestSPADJBounds(t *testing.T) {
	prog := []isa.Instr{{Op: isa.SPADJ, Imm: 1}}
	m := New(prog, DefaultConfig())
	if err := m.Run(100); !errors.Is(err, ErrStackFault) {
		t.Fatalf("err = %v, want stack fault", err)
	}
}

func TestDeterminism(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 50},
		{Op: isa.LDI, Rd: 2, Imm: -1},
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
	a := run(t, prog, DefaultConfig())
	b := run(t, prog, DefaultConfig())
	if a.Stats() != b.Stats() {
		t.Fatalf("same program produced different stats:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func TestEnergyModel(t *testing.T) {
	e := DefaultEnergyModel()
	s := Stats{Cycles: 1000, RadioPackets: 2, RadioWords: 10, SensorReads: 5}
	got := e.Energy(s)
	want := 1000*e.UJPerCycle + 10*e.UJPerRadioWord + 2*e.UJPerRadioPacket + 5*e.UJPerSensorRead
	if got != want {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	// Radio must dominate CPU for typical counts — that's the premise of
	// counting instrumentation overhead carefully.
	if 1000*e.UJPerCycle > e.UJPerRadioPacket {
		t.Fatal("energy coefficients out of shape")
	}
}

func TestPredictors(t *testing.T) {
	br := isa.Instr{Op: isa.BNZ, Ra: 1, Imm: 5}
	if (StaticNotTaken{}).PredictTaken(10, br) {
		t.Fatal("not-taken predicted taken")
	}
	if !(BTFN{}).PredictTaken(10, br) {
		t.Fatal("BTFN should predict backward branch taken")
	}
	if (BTFN{}).PredictTaken(2, br) {
		t.Fatal("BTFN should predict forward branch not taken")
	}
}

func TestBimodalLearnsLoop(t *testing.T) {
	// A 50-iteration loop: the bimodal predictor warms up in 2 iterations
	// and then predicts the backward-taken latch correctly, while static
	// not-taken mispredicts every taken execution.
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 50},
		{Op: isa.LDI, Rd: 2, Imm: -1},
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
	cfgNT := DefaultConfig()
	mNT := run(t, prog, cfgNT)

	cfgBi := DefaultConfig()
	cfgBi.Predictor = NewBimodal(6)
	mBi := run(t, prog, cfgBi)

	if mNT.Stats().Mispredicts != 49 {
		t.Fatalf("static mispredicts = %d, want 49", mNT.Stats().Mispredicts)
	}
	// Bimodal: initialized weakly-not-taken → mispredicts the first two
	// taken executions while saturating, then the final not-taken.
	if mBi.Stats().Mispredicts > 3 {
		t.Fatalf("bimodal mispredicts = %d, want <= 3", mBi.Stats().Mispredicts)
	}
}

func TestBimodalAliasing(t *testing.T) {
	// Two branches aliasing to the same table entry interfere; with a
	// large table they do not. Alternate a taken and a not-taken branch.
	prog := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 40}, // counter
		{Op: isa.LDI, Rd: 2, Imm: -1},
		{Op: isa.LDI, Rd: 3, Imm: 0},
		// 3: always-taken branch to 5.
		{Op: isa.BZ, Ra: 3, Imm: 5},
		{Op: isa.NOP},
		// 5: decrement and loop.
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.BNZ, Ra: 1, Imm: 3},
		{Op: isa.HALT},
	}
	cfg := DefaultConfig()
	cfg.Predictor = NewBimodal(10) // 1024 entries: no aliasing
	m := run(t, prog, cfg)
	// Both branches are strongly biased; after warmup nearly everything
	// predicts. Allow a small warmup budget.
	if m.Stats().Mispredicts > 6 {
		t.Fatalf("bimodal with large table mispredicts = %d", m.Stats().Mispredicts)
	}
	if NewBimodal(99).Name() != NewBimodal(6).Name() {
		t.Fatal("out-of-range table bits should clamp to the default size")
	}
}
