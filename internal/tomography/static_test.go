package tomography

// Tests for the static-analysis integration: value-range pinning of
// provably one-way branches and the static feasible envelope.

import (
	"testing"

	"codetomo/internal/compile"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// railProgram's handler has one branch the rail analysis resolves
// (sense() <= 1023 < 2000, always taken) and one genuinely data-dependent
// branch the estimator must still fit.
const railProgram = `
func handler() int {
	var v int;
	var r int;
	v = sense();
	r = 0;
	if (v < 2000) {
		r = r + 5;
	} else {
		r = 99;
	}
	if (v < 500) {
		r = r + 3;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 800; i = i + 1) {
		acc = acc + handler();
	}
	debug(acc);
}`

func TestStaticResolvePinsBranch(t *testing.T) {
	out, err := compile.Build(railProgram, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	enum := markov.EnumerateOptions{MaxVisits: 8, MaxPaths: 20000}

	base, err := NewModelOpts(out, "handler", mote.StaticNotTaken{}, enum, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelOpts(out, "handler", mote.StaticNotTaken{}, enum,
		ModelOptions{StaticResolve: true})
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one of the two branches is provable; it moves from the
	// unknowns to the pinned set.
	if len(base.Unknowns) != 2 {
		t.Fatalf("base unknowns = %d, want 2", len(base.Unknowns))
	}
	if len(m.Unknowns) != 1 {
		t.Fatalf("resolved unknowns = %d, want 1", len(m.Unknowns))
	}
	if len(m.Pinned) != 2 {
		t.Fatalf("pinned edges = %d, want 2 (both arms of one branch)", len(m.Pinned))
	}
	ones, zeros := 0, 0
	for _, p := range m.Pinned {
		switch p {
		case 1:
			ones++
		case 0:
			zeros++
		}
	}
	if ones != 1 || zeros != 1 {
		t.Fatalf("pinned probs = %v, want one 1 and one 0", m.Pinned)
	}

	// The starting point carries the pins; estimators never touch them.
	init := m.InitialProbs()
	for e, p := range m.Pinned {
		if init[e] != p {
			t.Fatalf("InitialProbs[%v] = %v, want pinned %v", e, init[e], p)
		}
	}

	// handler is loop-free, so the static envelope must be bounded.
	if m.Envelope == nil || !m.Envelope.Bounded {
		t.Fatalf("envelope = %+v, want bounded", m.Envelope)
	}
	if m.Envelope.MinCycles == 0 || m.Envelope.MinCycles >= m.Envelope.MaxCycles {
		t.Fatalf("degenerate envelope %+v", m.Envelope)
	}

	// End to end: measure on a mote, estimate, and check the pins survive
	// and the fit sits inside the static envelope.
	cfgM := mote.DefaultConfig()
	cfgM.TickDiv = 1
	cfgM.Sensor = workload.NewGaussian(stats.NewRNG(11), 400, 180)
	machine := mote.New(out.Code, cfgM)
	if err := machine.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	ivs, err := trace.Extract(machine.Trace())
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["handler"]
	samples := trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], 1)
	if len(samples) != 800 {
		t.Fatalf("samples = %d, want 800", len(samples))
	}
	est, st, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations == 0 {
		t.Fatal("EM did not run")
	}
	for e, p := range m.Pinned {
		if est[e] != p {
			t.Fatalf("estimate moved pinned edge %v: %v, want %v", e, est[e], p)
		}
	}
	if !m.EnvelopeCheck(est, 1) {
		t.Fatalf("EM estimate violates the static envelope %+v", m.Envelope)
	}
}

func TestEnvelopeCheck(t *testing.T) {
	m := syntheticModel(t)
	probs := m.InitialProbs()

	// No envelope: always passes.
	if !m.EnvelopeCheck(probs, 0) {
		t.Fatal("nil envelope should pass")
	}

	// A generous envelope around the real path-time range passes.
	lo, hi := m.PathTimes[0], m.PathTimes[0]
	for _, pt := range m.PathTimes {
		if pt < lo {
			lo = pt
		}
		if pt > hi {
			hi = pt
		}
	}
	m.Envelope = &compile.StaticEnvelope{
		MinCycles: uint64(lo), MaxCycles: uint64(hi), Bounded: true,
	}
	if !m.EnvelopeCheck(probs, 1) {
		t.Fatalf("uniform mean outside [%v,%v]", lo, hi)
	}

	// An envelope the mixture cannot reach fails: the shortest possible
	// path is already longer than the claimed maximum.
	m.Envelope = &compile.StaticEnvelope{MinCycles: 0, MaxCycles: uint64(lo) - 5, Bounded: true}
	if m.EnvelopeCheck(probs, 1) {
		t.Fatal("infeasible envelope should fail")
	}

	// Unbounded envelopes are vacuous.
	m.Envelope = &compile.StaticEnvelope{Bounded: false}
	if !m.EnvelopeCheck(probs, 0) {
		t.Fatal("unbounded envelope should pass")
	}
}
