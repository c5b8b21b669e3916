package compile

// Tests for the static-bounds layer: trip-count inference over real loop
// shapes, soundness of the WCET and stack bounds against actual execution
// (property-tested over random programs and the examples corpus), and
// behavioral equivalence of dead-branch elimination.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"codetomo/internal/analysis"
	"codetomo/internal/minic"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

// buildOpts are the standard full-optimization build settings used by the
// bounds tests.
func fullOpts(mode Mode) Options {
	return Options{
		Instrument:   mode,
		VerifyIR:     true,
		FuseCompares: true,
		RotateLoops:  true,
	}
}

func TestTripBounds(t *testing.T) {
	// Each program has exactly one loop in main; want is the maximum
	// number of back-edge traversals (0 = expect no provable bound).
	cases := []struct {
		name    string
		body    string // statements inside main
		want    uint64
		exact   bool // want is the exact inferred bound, not just a cap
		bounded bool
	}{
		{name: "for-up", body: `
			var i int;
			var s int = 0;
			for (i = 0; i < 10; i = i + 1) { s = s + i; }
			debug(s);`, want: 10, bounded: true},
		{name: "for-up-le", body: `
			var i int;
			var s int = 0;
			for (i = 0; i <= 10; i = i + 1) { s = s + i; }
			debug(s);`, want: 11, bounded: true},
		{name: "for-down", body: `
			var i int;
			var s int = 0;
			for (i = 9; i > 0; i = i - 1) { s = s + i; }
			debug(s);`, want: 9, bounded: true},
		{name: "for-down-ge", body: `
			var i int;
			var s int = 0;
			for (i = 9; i >= 0; i = i - 1) { s = s + i; }
			debug(s);`, want: 10, bounded: true},
		{name: "while-ne", body: `
			var i int = 0;
			var s int = 0;
			while (i != 8) { s = s + i; i = i + 1; }
			debug(s);`, want: 8, bounded: true},
		{name: "step-3", body: `
			var i int;
			var s int = 0;
			for (i = 0; i < 10; i = i + 3) { s = s + i; }
			debug(s);`, want: 4, bounded: true},
		{name: "limit-from-sense", body: `
			var i int;
			var n int = sense();
			var s int = 0;
			for (i = 0; i < n; i = i + 1) { s = s + 1; }
			debug(s);`, want: 1023, bounded: true},
		{name: "counter-from-sense", body: `
			var i int = sense();
			var s int = 0;
			for (; i < 2000; i = i + 1) { s = s + 1; }
			debug(s);`, want: 2000, bounded: true},
		{name: "data-dependent-exit", body: `
			var i int = 0;
			while (sense() < 512) { i = i + 1; }
			debug(i);`, want: 0, bounded: false},
		{name: "double-update", body: `
			var i int = 0;
			var s int = 0;
			while (i < 10) { i = i + 1; s = s + i; i = i + 1; }
			debug(s);`, want: 0, bounded: false},
	}
	for _, tc := range cases {
		for _, rotate := range []bool{false, true} {
			name := tc.name
			if rotate {
				name += "/rotated"
			}
			t.Run(name, func(t *testing.T) {
				src := "func main() {\n" + tc.body + "\n}\n"
				opts := fullOpts(ModeNone)
				opts.RotateLoops = rotate
				out, err := Build(src, opts)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				sb, err := out.ProcStaticBound("main")
				if err != nil {
					t.Fatalf("bound: %v", err)
				}
				var loops int
				var got analysis.TripBound
				for _, tb := range sb.Trips {
					loops++
					got = tb
				}
				if loops != 1 {
					// Rotation can simplify a loop away entirely (e.g. a
					// resolved guard leaves a straight line); only a
					// genuinely missing loop is a failure.
					if loops == 0 && tc.bounded {
						if !sb.Bounded {
							t.Fatalf("no loop found and proc unbounded")
						}
						return // loop was fully resolved away: trivially bounded
					}
					t.Fatalf("found %d loops, want 1", loops)
				}
				if got.Bounded != tc.bounded {
					t.Fatalf("bounded = %v, want %v (bound %d)", got.Bounded, tc.bounded, got.MaxBackEdges)
				}
				if tc.bounded && got.MaxBackEdges > tc.want {
					t.Errorf("trip bound %d exceeds expected max %d", got.MaxBackEdges, tc.want)
				}
				if tc.bounded && sb.Bounded == false {
					t.Errorf("loop bounded but procedure WCET unbounded: %+v", sb.WCET)
				}
			})
		}
	}
}

// runWithBudget steps the machine to completion, tracking the minimum
// stack pointer ever observed.
func runWithBudget(m *mote.Machine, maxCycles uint64) (minSP int32, err error) {
	minSP = m.SP()
	for !m.Halted() {
		if m.Stats().Cycles > maxCycles {
			return minSP, fmt.Errorf("cycle budget exhausted")
		}
		if err := m.Step(); err != nil {
			return minSP, err
		}
		if sp := m.SP(); sp < minSP {
			minSP = sp
		}
	}
	return minSP, nil
}

// checkStaticBounds builds src with full optimizations plus timestamps at
// TickDiv 1, runs it, and asserts that no measured exclusive interval
// exceeds the procedure's static WCET and that the observed stack depth
// stays within the static stack bound. It is the soundness oracle shared
// by the property test, the fuzz target, and the corpus test.
func checkStaticBounds(t *testing.T, tag, src string, senseVals, randVals []uint16) {
	t.Helper()
	for _, dbe := range []bool{false, true} {
		opts := fullOpts(ModeTimestamps)
		opts.DeadBranchElim = dbe
		out, err := Build(src, opts)
		if err != nil {
			t.Fatalf("%s: build(dbe=%v): %v\n%s", tag, dbe, err, src)
		}
		bounds, err := staticBounds(out)
		if err != nil {
			t.Fatalf("%s: bounds: %v", tag, err)
		}
		stack := analysis.StackBounds(out.CFG)

		cfgM := mote.DefaultConfig()
		cfgM.TickDiv = 1
		si, ri := 0, 0
		cfgM.Sensor = scripted{senseVals, &si}
		cfgM.Entropy = scripted{randVals, &ri}
		m := mote.New(out.Code, cfgM)
		minSP, err := runWithBudget(m, 200_000_000)
		if err != nil {
			t.Fatalf("%s: run(dbe=%v): %v\n%s", tag, dbe, err, src)
		}

		// Stack soundness: observed depth vs the static bound for main
		// (the stub calls main; everything hangs off it).
		mb := stack["main"]
		if !mb.Recursive {
			observed := int(cfgM.RAMWords) - int(minSP)
			if observed > mb.Words {
				t.Errorf("%s: observed stack depth %d words exceeds static bound %d\n%s",
					tag, observed, mb.Words, src)
			}
		}

		// Timing soundness: every completed exclusive interval vs the
		// procedure's WCET. At TickDiv 1 ticks are cycles exactly.
		ivs, err := trace.Extract(m.Trace())
		if err != nil {
			t.Fatalf("%s: trace: %v", tag, err)
		}
		for _, iv := range ivs {
			pm := out.Meta.Procs[iv.ProcIndex]
			sb := bounds[pm.Name]
			if !sb.Bounded {
				continue
			}
			if excl := iv.ExclusiveTicks(); excl > sb.Cycles {
				t.Errorf("%s: %s interval of %d cycles exceeds static WCET %d (dbe=%v)\n%s",
					tag, pm.Name, excl, sb.Cycles, dbe, src)
			}
		}
	}
}

// peripheralScripts returns deterministic sensor/entropy sequences for a
// seed, shared across build variants.
func peripheralScripts(seed int64) (senseVals, randVals []uint16) {
	rng := stats.NewRNG(9000 + seed)
	senseVals = make([]uint16, 64)
	randVals = make([]uint16, 64)
	for i := range senseVals {
		senseVals[i] = uint16(rng.Intn(1 << 16)) // pre-clamp: the ADC rails it
		randVals[i] = uint16(rng.Intn(1 << 16))
	}
	return senseVals, randVals
}

func TestStaticBoundsProperty(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := generateProgram(seed)
		senseVals, randVals := peripheralScripts(seed)
		checkStaticBounds(t, fmt.Sprintf("seed %d", seed), src, senseVals, randVals)
		if t.Failed() {
			return
		}
	}
}

// TestStaticBoundsExamples checks the soundness property over every
// program in the examples/minic corpus that runs to completion.
func TestStaticBoundsExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.mc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		srcB, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(srcB)
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			f, err := minic.Parse(src)
			if err != nil {
				t.Skipf("parse: %v", err)
			}
			if err := minic.Check(f); err != nil {
				t.Skipf("check: %v", err)
			}
			opts := fullOpts(ModeTimestamps)
			out, err := Build(src, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			bounds, err := staticBounds(out)
			if err != nil {
				t.Fatalf("bounds: %v", err)
			}
			cfgM := mote.DefaultConfig()
			cfgM.TickDiv = 1
			si, ri := 0, 0
			sv, rv := peripheralScripts(1)
			cfgM.Sensor = scripted{sv, &si}
			cfgM.Entropy = scripted{rv, &ri}
			m := mote.New(out.Code, cfgM)
			// Event-loop programs never halt: cap the run and check the
			// intervals completed so far.
			_ = m.Run(2_000_000)
			ivs, err := trace.Extract(m.Trace())
			if err != nil {
				// A capped run can end mid-procedure; drop the open tail
				// by ignoring extraction errors on unbalanced logs.
				return
			}
			for _, iv := range ivs {
				pm := out.Meta.Procs[iv.ProcIndex]
				sb := bounds[pm.Name]
				if !sb.Bounded {
					continue
				}
				if excl := iv.ExclusiveTicks(); excl > sb.Cycles {
					t.Errorf("%s: interval of %d cycles exceeds static WCET %d",
						pm.Name, excl, sb.Cycles)
				}
			}
		})
	}
}

// TestDeadBranchElimResolves checks the pass actually fires: a branch on a
// sense() reading compared against a value beyond the ADC rail must fold.
func TestDeadBranchElimResolves(t *testing.T) {
	src := `
func main() {
	var v int = sense();
	if (v < 2000) {
		debug(1);
	} else {
		debug(2);
	}
	debug(v);
}
`
	plain, err := Build(src, fullOpts(ModeNone))
	if err != nil {
		t.Fatal(err)
	}
	opts := fullOpts(ModeNone)
	opts.DeadBranchElim = true
	elim, err := Build(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(elim.Code) >= len(plain.Code) {
		t.Errorf("elimination did not shrink the binary: %d vs %d instrs", len(elim.Code), len(plain.Code))
	}
	// The resolved program must still print 1 then v.
	cfgM := mote.DefaultConfig()
	i := 0
	cfgM.Sensor = scripted{[]uint16{700}, &i}
	m := mote.New(elim.Code, cfgM)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	want := []uint16{1, 700}
	got := m.DebugOutput()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("debug output = %v, want %v", got, want)
	}
}

func FuzzStaticBounds(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(1234))
	f.Fuzz(func(t *testing.T, seed int64) {
		src := generateProgram(seed)
		if parsed, err := minic.Parse(src); err != nil || minic.Check(parsed) != nil {
			t.Skip()
		}
		senseVals, randVals := peripheralScripts(seed)
		checkStaticBounds(t, fmt.Sprintf("fuzz seed %d", seed), src, senseVals, randVals)
	})
}

// staticBounds computes ProcStaticBound for every procedure.
func staticBounds(out *Output) (map[string]StaticBound, error) {
	bounds := make(map[string]StaticBound, len(out.CFG.Procs))
	for _, p := range out.CFG.Procs {
		b, err := out.ProcStaticBound(p.Name)
		if err != nil {
			return nil, err
		}
		bounds[p.Name] = b
	}
	return bounds, nil
}
