package tomography

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// randomModel builds a chain of `diamonds` two-way branches with RNG-drawn
// block and edge costs — the randomized corpus for pinning the dense kernel
// against the reference. Arm costs are drawn wide enough that some models
// get well-separated paths (singleton supports) and others get colliding
// ones (genuine EM mixing), covering both regimes.
func randomModel(t testing.TB, rng *stats.RNG, diamonds int) *Model {
	t.Helper()
	var blocks []*cfg.Block
	id := func(i int) ir.BlockID { return ir.BlockID(i) }
	for d := 0; d < diamonds; d++ {
		base := 3 * d
		blocks = append(blocks,
			&cfg.Block{ID: id(base), Term: ir.Br{Cond: 0, True: id(base + 1), False: id(base + 2)}},
			&cfg.Block{ID: id(base + 1), Term: ir.Jmp{Target: id(base + 3)}},
			&cfg.Block{ID: id(base + 2), Term: ir.Jmp{Target: id(base + 3)}},
		)
	}
	blocks = append(blocks, &cfg.Block{ID: id(3 * diamonds), Term: ir.Ret{Val: -1}})
	p := &cfg.Proc{Name: "rand", Entry: 0, Blocks: blocks}

	costs := &markov.Costs{
		Block:         make([]float64, len(blocks)),
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: float64(rng.Intn(20)),
	}
	for i := range costs.Block {
		costs.Block[i] = float64(rng.Intn(120))
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(rng.Intn(8))
	}

	m := newModel(p, costs, markov.EnumerateOptions{MaxVisits: 4, MaxPaths: 1 << 12}, nil)
	if len(m.Paths) == 0 {
		t.Fatal("random model has no paths")
	}
	return m
}

// randomTruth draws a branch-probability assignment bounded away from the
// degenerate 0/1 corners so sampled paths exercise every arm.
func randomTruth(m *Model, rng *stats.RNG) markov.EdgeProbs {
	ep := markov.Uniform(m.Proc)
	for _, u := range m.Unknowns {
		p := 0.1 + 0.8*rng.Float64()
		ep[u.Edges[0]] = p
		ep[u.Edges[1]] = 1 - p
	}
	return ep
}

// TestDenseMatchesReferenceProperty is the ISSUE's pinning property: over
// 1000 random models, the dense kernel must agree with the retained
// map-based reference — same iteration counts, per-edge probabilities
// within 1e-9 (they are bit-identical by construction; the tolerance is
// slack for exotic FMA contraction only), same convergence verdict and
// log-likelihood — and the dense kernel must be deterministic across
// GOMAXPROCS settings.
func TestDenseMatchesReferenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-model corpus")
	}
	kernelWidths := []float64{0.5, 2, 8, 60}
	for trial := 0; trial < 1000; trial++ {
		rng := stats.NewRNG(int64(trial) + 1)
		m := randomModel(t, rng, 1+rng.Intn(4))
		truth := randomTruth(m, rng)
		tickDiv := []int{1, 4, 8}[rng.Intn(3)]
		samples := sampleDurations(t, m, truth, 40+rng.Intn(120), tickDiv, int64(trial)*31+7)
		cfg := EMConfig{
			KernelHalfWidth: kernelWidths[rng.Intn(len(kernelWidths))],
			MaxIter:         60,
		}

		dense, dst, derr := EstimateEM(m, samples, cfg)
		ref, rst, rerr := EstimateEMReference(m, samples, cfg)
		if derr != nil || rerr != nil {
			t.Fatalf("trial %d: dense err=%v reference err=%v", trial, derr, rerr)
		}
		if dst.Iterations != rst.Iterations || dst.Converged != rst.Converged {
			t.Fatalf("trial %d: dense ran %d iters (conv=%v), reference %d (conv=%v)",
				trial, dst.Iterations, dst.Converged, rst.Iterations, rst.Converged)
		}
		if dst.LogLikelihood != rst.LogLikelihood || dst.Unmatched != rst.Unmatched {
			t.Fatalf("trial %d: stats diverge: dense %+v reference %+v", trial, dst, rst)
		}
		if len(dense) != len(ref) {
			t.Fatalf("trial %d: dense has %d edges, reference %d", trial, len(dense), len(ref))
		}
		for e, rp := range ref {
			dp, ok := dense[e]
			if !ok {
				t.Fatalf("trial %d: edge %v missing from dense estimate", trial, e)
			}
			if math.Abs(dp-rp) > 1e-9 {
				t.Fatalf("trial %d: edge %v: dense %v vs reference %v", trial, e, dp, rp)
			}
		}

		// Determinism across GOMAXPROCS: the kernel is sequential, so the
		// scheduler must have no way to perturb it. Spot-check a slice of
		// the corpus (the switch itself is costly).
		if trial%97 == 0 {
			prev := runtime.GOMAXPROCS(1)
			again, ast, aerr := EstimateEM(m, samples, cfg)
			runtime.GOMAXPROCS(prev)
			if aerr != nil {
				t.Fatalf("trial %d: GOMAXPROCS=1 rerun: %v", trial, aerr)
			}
			if !reflect.DeepEqual(dense, again) || ast != dst {
				t.Fatalf("trial %d: estimate depends on GOMAXPROCS", trial)
			}
		}
	}
}
