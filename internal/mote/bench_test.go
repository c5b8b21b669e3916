package mote

import (
	"sync"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/isa"
)

// The interpreter kernels are hand-assembled M16 loops covering the three
// dispatch profiles that dominate real handler code: dense conditional
// branches, straight-line ALU work, and call/return traffic through the
// stack.

// branchyProg is a nested counted loop whose body toggles a flag and
// branches on it, so ~45% of executed instructions are conditional branches
// with mixed outcomes. It executes ~4.5*inner*outer instructions and halts.
func branchyProg(outer, inner int32) []isa.Instr {
	return []isa.Instr{
		{Op: isa.LDI, Rd: 3, Imm: outer},
		{Op: isa.LDI, Rd: 4, Imm: -1},
		{Op: isa.LDI, Rd: 1, Imm: inner},      // 2: outer loop head
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1}, // 3: inner loop head
		{Op: isa.XORI, Rd: 2, Ra: 2, Imm: 1},
		{Op: isa.BNZ, Ra: 2, Imm: 7}, // alternating taken/not-taken
		{Op: isa.NOP},
		{Op: isa.BNZ, Ra: 1, Imm: 3}, // 7: latch, taken inner-1 times
		{Op: isa.ADD, Rd: 3, Ra: 3, Rb: 4},
		{Op: isa.BNZ, Ra: 3, Imm: 2},
		{Op: isa.HALT},
	}
}

// aluProg is a nested loop with a straight-line ALU body, so only ~11% of
// executed instructions are branches. ~9*inner*outer instructions.
func aluProg(outer, inner int32) []isa.Instr {
	return []isa.Instr{
		{Op: isa.LDI, Rd: 5, Imm: outer},
		{Op: isa.LDI, Rd: 6, Imm: -1},
		{Op: isa.LDI, Rd: 7, Imm: 1},
		{Op: isa.LDI, Rd: 1, Imm: inner},   // 3: outer loop head
		{Op: isa.ADD, Rd: 2, Ra: 2, Rb: 1}, // 4: inner loop head
		{Op: isa.XOR, Rd: 3, Ra: 3, Rb: 2},
		{Op: isa.SHL, Rd: 4, Ra: 2, Rb: 7},
		{Op: isa.AND, Rd: 4, Ra: 4, Rb: 3},
		{Op: isa.OR, Rd: 2, Ra: 2, Rb: 4},
		{Op: isa.SUB, Rd: 3, Ra: 3, Rb: 6},
		{Op: isa.SLT, Rd: 8, Ra: 3, Rb: 2},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 4},
		{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 6},
		{Op: isa.BNZ, Ra: 5, Imm: 3},
		{Op: isa.HALT},
	}
}

// callProg is a nested loop whose inner body calls a leaf that pushes and
// pops, exercising CALL/RET and stack traffic on every iteration.
// ~7*inner*outer instructions.
func callProg(outer, inner int32) []isa.Instr {
	return []isa.Instr{
		{Op: isa.LDI, Rd: 5, Imm: outer},
		{Op: isa.LDI, Rd: 6, Imm: -1},
		{Op: isa.LDI, Rd: 1, Imm: inner}, // 2: outer loop head
		{Op: isa.CALL, Imm: 9},           // 3: inner loop head
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 3},
		{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 6},
		{Op: isa.BNZ, Ra: 5, Imm: 2},
		{Op: isa.HALT},
		{Op: isa.PUSH, Ra: 2}, // 9: leaf
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 1},
		{Op: isa.POP, Rd: 2},
		{Op: isa.RET},
	}
}

// A kernel is one benchmark program and the configuration it runs under
// (a fresh one per call, since the peripheral feeds carry state).
type kernel struct {
	name string
	prog []isa.Instr
	cfg  func() Config
}

// kernels sizes each kernel to execute at least a million instructions:
// the three hand-assembled loops, then two apps as the MiniC backend
// compiles them for profiling (timestamp-instrumented), whose frame-
// pointer traffic is what the block core's fused idioms target. crc is
// almost all frame loads and stores in long blocks; sense has the short
// blocks of a fleet mote.
var kernels = sync.OnceValue(func() []kernel {
	return []kernel{
		{"branch", branchyProg(250, 1000), benchCfg},
		{"alu", aluProg(120, 1000), benchCfg},
		{"call", callProg(150, 1000), benchCfg},
		{"crc", compiledKernel("crc", 700), compiledCfg},
		{"sense", compiledKernel("sense", 20000), compiledCfg},
	}
})

// compiledKernel builds the named app for iters handler invocations with
// timestamp instrumentation.
func compiledKernel(name string, iters int) []isa.Instr {
	app, ok := apps.ByName(name)
	if !ok {
		panic("no app " + name)
	}
	src, err := app.Source(iters)
	if err != nil {
		panic(err)
	}
	out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		panic(err)
	}
	return out.Code
}

// adcTestSource feeds the ADC readings inside the converter's range, so a
// compiled app's thresholds see both outcomes.
type adcTestSource struct{ lcgTestSource }

func (a *adcTestSource) Next() uint16 { return a.lcgTestSource.Next() & isa.ADCMaxReading }

// compiledCfg is the default mote with seeded sensor and entropy feeds.
func compiledCfg() Config {
	cfg := DefaultConfig()
	cfg.Sensor = &adcTestSource{lcgTestSource{s: 1}}
	cfg.Entropy = &lcgTestSource{s: 2}
	return cfg
}

// predictors are the static and dynamic policies the kernels run under;
// each call returns fresh predictor state.
var predictors = []struct {
	name  string
	fresh func() Predictor
}{
	{"not-taken", func() Predictor { return StaticNotTaken{} }},
	{"bimodal-6", func() Predictor { return NewBimodal(6) }},
	{"btfn", func() Predictor { return BTFN{} }},
}

// benchCfg is the default mote with a small RAM.
func benchCfg() Config {
	cfg := DefaultConfig()
	cfg.RAMWords = 64
	return cfg
}

// runCore benchmarks one interpreter core on each kernel. Each kernel
// keeps one machine and resets it with the timer stopped before every run,
// as the fleet's workers reuse theirs, so allocs/op reports the dispatch
// loop alone and a compiled kernel's trace buffer grows only on the first
// run. The loop must allocate nothing on the hand-assembled kernels.
func runCore(b *testing.B, run func(*Machine) error) {
	for _, k := range kernels() {
		b.Run(k.name, func(b *testing.B) {
			m := New(k.prog, k.cfg())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Reset(k.cfg())
				b.StartTimer()
				if err := run(m); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(m.Stats().Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

func BenchmarkRun(b *testing.B) {
	runCore(b, func(m *Machine) error { return m.Run(1 << 40) })
}

func BenchmarkStep(b *testing.B) {
	runCore(b, func(m *Machine) error { return m.RunReference(1 << 40) })
}

// TestKernelCoresAgree runs every kernel under every predictor on both
// cores and requires identical final state, so the benchmarks above time
// two cores that compute the same thing.
func TestKernelCoresAgree(t *testing.T) {
	for _, k := range kernels() {
		for _, p := range predictors {
			tag := k.name + "/" + p.name
			mk := func() *Machine {
				cfg := k.cfg()
				cfg.Predictor = p.fresh()
				return New(k.prog, cfg)
			}
			fused, ref := mk(), mk()
			errF, errR := fused.Run(1<<40), ref.RunReference(1<<40)
			compareState(t, tag, fused, ref, errF, errR)
			if n := fused.Stats().Instructions; n < 1_000_000 {
				t.Fatalf("%s: executed %d instructions, want at least a million", tag, n)
			}
		}
	}
}

// Both cores must execute the dispatch loop without allocating: the fused
// loop by construction, the reference Step since the per-call closure and
// the per-branch map insert were removed.
func TestCoresAllocateNothingPerInstruction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	prog := branchyProg(2, 500)
	cfg := benchCfg()
	cores := []struct {
		name string
		run  func(*Machine) error
	}{
		{"fused", func(m *Machine) error { return m.Run(1 << 40) }},
		{"reference", func(m *Machine) error { return m.RunReference(1 << 40) }},
	}
	for _, core := range cores {
		const rounds = 10
		machines := make([]*Machine, rounds+1) // +1 for AllocsPerRun's warm-up call
		for i := range machines {
			machines[i] = New(prog, cfg)
		}
		i := 0
		avg := testing.AllocsPerRun(rounds, func() {
			if err := core.run(machines[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if avg != 0 {
			t.Errorf("%s core: %v allocs per run, want 0", core.name, avg)
		}
	}
}
