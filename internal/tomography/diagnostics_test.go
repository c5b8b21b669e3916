package tomography

import (
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// twoArmModel builds a single-branch procedure whose arms differ by the
// given number of cycles.
func twoArmModel(t testing.TB, armDelta float64) *Model {
	t.Helper()
	p := &cfg.Proc{
		Name:  "arms",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Term: ir.Jmp{Target: 3}},
			{ID: 2, Term: ir.Jmp{Target: 3}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
	costs := &markov.Costs{
		Block: []float64{10, 40 + armDelta, 40, 5},
		Edge:  make(map[[2]ir.BlockID]float64),
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = 0
	}
	return newModel(p, costs, markov.EnumerateOptions{MaxVisits: 6, MaxPaths: 4096}, nil)
}

func TestBranchAmbiguityDetectsCollision(t *testing.T) {
	// Arms 0 cycles apart: durations carry no information about the
	// branch; ambiguity must be 1.
	collide := twoArmModel(t, 0)
	amb := collide.BranchAmbiguity(2)
	if amb[0] != 1 {
		t.Fatalf("colliding arms ambiguity = %v, want 1", amb[0])
	}
	// Arms 40 cycles apart: fully separable.
	apart := twoArmModel(t, 40)
	amb = apart.BranchAmbiguity(2)
	if amb[0] != 0 {
		t.Fatalf("separated arms ambiguity = %v, want 0", amb[0])
	}
	// The window matters: 40-cycle separation is ambiguous to a 50-cycle
	// window.
	amb = apart.BranchAmbiguity(50)
	if amb[0] != 1 {
		t.Fatalf("wide-window ambiguity = %v, want 1", amb[0])
	}
}

func TestBranchAmbiguityEMConsistency(t *testing.T) {
	// On a truly colliding branch, EM must stay at (or return to) the
	// uninformative prior — the diagnostic and the estimator must agree
	// that there is nothing to learn.
	m := twoArmModel(t, 0)
	truth := markov.Uniform(m.Proc)
	truth[[2]ir.BlockID{0, 1}] = 0.9
	truth[[2]ir.BlockID{0, 2}] = 0.1
	samples := sampleDurations(t, m, truth, 2000, 1, 5)
	est, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := est[[2]ir.BlockID{0, 1}]
	if got < 0.45 || got > 0.55 {
		t.Fatalf("EM on unidentifiable branch = %v, want ~0.5 (the prior)", got)
	}
}
