package tomography

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// randomClassProc builds a random CFG of n blocks with integer-cycle
// costs. Targets lean forward but may jump back (loops whose iterations
// can come in any order), and some branches name one block on both arms,
// so distinct paths share arc counts and classes get multiplicities above
// one.
func randomClassProc(rng *stats.RNG, n int) (*cfg.Proc, *markov.Costs) {
	target := func(i int) ir.BlockID {
		if i+1 < n && rng.Intn(4) > 0 {
			return ir.BlockID(i + 1 + rng.Intn(n-i-1))
		}
		return ir.BlockID(rng.Intn(n))
	}
	blocks := make([]*cfg.Block, n)
	for i := range blocks {
		var term ir.Terminator
		switch r := rng.Intn(10); {
		case i == n-1 || r == 0:
			term = ir.Ret{Val: -1}
		case r < 3:
			term = ir.Jmp{Target: target(i)}
		case r < 5:
			s := target(i)
			term = ir.Br{Cond: 0, True: s, False: s}
		default:
			term = ir.Br{Cond: 0, True: target(i), False: target(i)}
		}
		blocks[i] = &cfg.Block{ID: ir.BlockID(i), Term: term}
	}
	p := &cfg.Proc{Name: fmt.Sprintf("rand%d", n), Entry: 0, Blocks: blocks}
	costs := &markov.Costs{
		Block:         make([]float64, n),
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: float64(rng.Intn(20)),
	}
	for i := range costs.Block {
		costs.Block[i] = float64(rng.Intn(120))
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(rng.Intn(8))
	}
	return p, costs
}

// expandClasses returns m with every class expanded into as many
// unit-multiplicity copies of its path as it stands for, in class order:
// the path-per-path model the class fold replaced.
func expandClasses(m *Model) *Model {
	x := &Model{
		Proc: m.Proc, Costs: m.Costs, Truncated: m.Truncated,
		Unknowns: m.Unknowns, Pinned: m.Pinned, Envelope: m.Envelope,
		tickDiv: m.tickDiv, index: m.index, unknown: m.unknown,
	}
	for j, p := range m.Paths {
		for range m.Mult[j] {
			x.Paths = append(x.Paths, p)
			x.Mult = append(x.Mult, 1)
			x.PathTimes = append(x.PathTimes, m.PathTimes[j])
		}
	}
	return x
}

// agree requires got and want to be equal, bit for bit when exact is set
// and within 1e-12 of the larger magnitude (at least 1) otherwise.
func agree(t *testing.T, what string, got, want float64, exact bool) {
	t.Helper()
	if exact && math.Float64bits(got) != math.Float64bits(want) ||
		!exact && math.Abs(got-want) > 1e-12*math.Max(1, math.Max(math.Abs(got), math.Abs(want))) {
		t.Fatalf("%s: class model %v, expanded model %v", what, got, want)
	}
}

// TestClassesMatchExpandedPaths compares every multiplicity-weighted
// consumer of a class model with the same model expanded into one
// unit-multiplicity path per enumerated path: EM (from the uniform start
// and from a start with a zeroed edge, which reaches the zero-prior
// fallback), Coverage, EnvelopeCheck, BranchAmbiguity, TruncationHazard
// and DebiasTruncation agree within 1e-12, and bit for bit where every
// multiplicity is 1. EM on the class model also equals the map-keyed
// oracle EstimateEMReference bit for bit.
func TestClassesMatchExpandedPaths(t *testing.T) {
	rng := stats.NewRNG(11)
	folded := 0
	for trial := 0; trial < 300; trial++ {
		p, costs := randomClassProc(rng, 2+rng.Intn(10))
		m := newModel(p, costs, markov.EnumerateOptions{MaxVisits: 1 + rng.Intn(3), MaxPaths: 1 + rng.Intn(300)}, nil)
		if len(m.Paths) == 0 || len(m.Unknowns) == 0 {
			continue
		}
		x := expandClasses(m)
		exact := len(x.Paths) == len(m.Paths)
		if !exact {
			folded++
		}
		name := func(what string) string {
			return fmt.Sprintf("trial %d (%d classes, %d paths): %s", trial, len(m.Paths), len(x.Paths), what)
		}

		samples := make([]float64, 150)
		for i := range samples {
			samples[i] = m.PathTimes[rng.Intn(len(m.PathTimes))] + float64(rng.Intn(9)-4)
		}
		samples = append(samples, slices.Max(m.PathTimes)+500)
		h := CountSamples(samples)
		zeroed := m.InitialProbs()
		u := m.Unknowns[rng.Intn(len(m.Unknowns))]
		for _, e := range u.Edges {
			zeroed[e] = 1
		}
		zeroed[u.Edges[0]] = 0
		for _, init := range []markov.EdgeProbs{nil, zeroed} {
			cfg := EMConfig{MaxIter: 40}
			got, gst, err := estimateEMDense(m, h, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := estimateEMDense(x, h, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gst.Iterations != wst.Iterations || gst.Unmatched != wst.Unmatched {
				t.Fatalf("%s: EM stats %+v, expanded %+v", name("EM"), gst, wst)
			}
			// An unmatched sample goes to the nearest class whole, but to
			// one copy of its path in the expanded model: the same
			// responsibility, at a likelihood smaller by the multiplicity.
			if gst.Unmatched == 0 || exact {
				agree(t, name("log-likelihood"), gst.LogLikelihood, wst.LogLikelihood, exact)
			}
			for e, w := range want {
				agree(t, name(fmt.Sprintf("EM edge %v", e)), got[e], w, exact)
			}
		}

		// The map-keyed oracle weights classes the same way, bit for bit.
		cfg := EMConfig{MaxIter: 40}
		got, gst, _ := EstimateEM(m, samples, cfg)
		want, wst, _ := EstimateEMReference(m, samples, cfg)
		if gst != wst {
			t.Fatalf("%s: EM stats %+v, reference %+v", name("EM oracle"), gst, wst)
		}
		for e, w := range want {
			agree(t, name(fmt.Sprintf("EM oracle edge %v", e)), got[e], w, true)
		}

		for _, hw := range []float64{0, 1, 4} {
			agree(t, name("coverage"), m.Coverage(samples, hw), x.Coverage(samples, hw), exact)
			agree(t, name("coverage counts"), m.CoverageCounts(h, hw), x.CoverageCounts(h, hw), exact)
		}
		truth := randomTruth(m, rng)
		for _, tau := range m.PathTimes {
			// The slack keeps the bound off the class times, where the
			// mean of a single class sits exactly.
			env := &compile.StaticEnvelope{MaxCycles: uint64(tau), Bounded: true}
			m.Envelope, x.Envelope = env, env
			if m.EnvelopeCheck(truth, 0.3) != x.EnvelopeCheck(truth, 0.3) {
				t.Fatalf("%s: envelope check disagrees", name(fmt.Sprintf("envelope max %v", tau)))
			}
		}
		for _, window := range []float64{0.5, 4, 16} {
			want := x.BranchAmbiguity(window)
			for b, a := range m.BranchAmbiguity(window) {
				agree(t, name(fmt.Sprintf("ambiguity of block %v", b)), a, want[b], exact)
			}
		}
		for _, lost := range []int{0, 30, 400} {
			agree(t, name("hazard"), m.TruncationHazard(truth, lost, 1000), x.TruncationHazard(truth, lost, 1000), exact)
			want := x.DebiasTruncation(truth, lost, 1000)
			for e, q := range m.DebiasTruncation(truth, lost, 1000) {
				agree(t, name(fmt.Sprintf("debiased edge %v", e)), q, want[e], exact)
			}
		}
	}
	t.Logf("%d of 300 models had a class of several paths", folded)
	if folded < 30 {
		t.Fatalf("only %d models had a class of several paths", folded)
	}
}
