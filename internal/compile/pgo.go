package compile

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
)

// ProcWeights are expected edge-traversal counts for one procedure per
// invocation, keyed by CFG edge — the same shape as layout.Weights, which
// the estimator derives from its branch-probability estimates via the
// Markov chain.
type ProcWeights = map[[2]ir.BlockID]float64

// PGOOptions configures the profile-guided optimization pipeline that runs
// between the middle-end passes and code generation. The pipeline consumes
// the same edge weights block placement does and goes beyond placement:
// inlining hot call sites, straightening hot traces with bounded tail
// duplication, splitting provably-cold blocks into a shared cold flash
// region, and packing hot regions to flash pages.
//
// The passes transform both the CFG and the weights, then compute layouts
// and polarity hints from the transformed weights; caller-supplied
// Options.Layouts/BranchHints entries for weighted procedures are
// overridden. Weights must be keyed by the block IDs of the CFG as it
// stands after the deterministic pre-PGO pipeline (DeadBranchElim,
// RotateLoops) — exactly the CFG an instrumented build with the same flags
// produced, which is what makes estimated probabilities transferable.
type PGOOptions struct {
	// Weights holds per-procedure edge weights. Procedures without an
	// entry are left untouched by every pass (no information, no
	// transformation).
	Weights map[string]ProcWeights

	// Inline replaces small leaf calls at hot call sites with the callee
	// body (fresh locals and temps per site).
	Inline bool
	// Superblock grows traces along hottest edges and removes side
	// entrances by duplicating the trace tail, so hot paths become
	// straight-line fall-through code under the computed layout.
	Superblock bool
	// HotCold moves blocks whose expected traversal count is at most
	// coldMaxWeight into a cold region emitted after all hot regions.
	HotCold bool
	// PagePack aligns a procedure's hot region to the next flash page
	// boundary when doing so reduces the number of pages it spans
	// (requires a cost model with PageSizeBytes > 0).
	PagePack bool
}

const (
	// inlineMaxInstrs caps the callee body size in IR instructions;
	// inlineMinWeight is the minimum expected executions per invocation of
	// the call-site block; inlineBudget caps total inlined IR instructions
	// per caller.
	inlineMaxInstrs = 24
	inlineMinWeight = 0.5
	inlineBudget    = 96
	// tailDupMaxInstrs caps the IR instructions duplicated per procedure
	// by superblock formation.
	tailDupMaxInstrs = 16
	// coldMaxWeight is the hot/cold threshold in expected traversals per
	// invocation.
	coldMaxWeight = 0.01
)

// runPGO executes the profile-guided pipeline on the lowered program,
// rewriting opts in place: the CFG is transformed, Layouts/BranchHints are
// recomputed from the transformed weights, and ColdBlocks is filled when
// hot/cold splitting is on. Each CFG-mutating pass is followed by the same
// stage checking the middle-end pipeline uses.
func runPGO(prog *cfg.Program, opts *Options) error {
	pgo := opts.PGO

	// The passes redistribute weight across transformed edges; work on a
	// copy so the caller's maps survive intact.
	weights := make(map[string]ProcWeights, len(pgo.Weights))
	for name, w := range pgo.Weights {
		cw := make(ProcWeights, len(w))
		for k, v := range w {
			cw[k] = v
		}
		weights[name] = cw
	}

	if pgo.Inline {
		inlineHotCalls(prog, weights)
		if err := checkStage(prog, "pgo-inline", *opts); err != nil {
			return err
		}
	}
	if pgo.Superblock {
		formSuperblocks(prog, weights)
		if err := checkStage(prog, "pgo-superblock", *opts); err != nil {
			return err
		}
	}

	// Placement and polarity from the transformed weights.
	if opts.Layouts == nil {
		opts.Layouts = make(map[string][]ir.BlockID)
	}
	if opts.BranchHints == nil {
		opts.BranchHints = make(map[string]map[ir.BlockID]bool)
	}
	for _, p := range prog.Procs {
		w, ok := weights[p.Name]
		if !ok {
			continue
		}
		opts.Layouts[p.Name] = layout.Optimize(p, w)
		opts.BranchHints[p.Name] = layout.Hints(p, w)
	}

	if pgo.HotCold {
		opts.ColdBlocks = coldSplit(prog, weights)
	}
	opts.pgoWeights = weights
	return nil
}

// blockWeights derives per-block expected traversal counts from edge
// weights: the entry executes once per invocation, every other block as
// often as its in-edges are traversed.
func blockWeights(p *cfg.Proc, w ProcWeights) map[ir.BlockID]float64 {
	bw := make(map[ir.BlockID]float64, len(p.Blocks))
	bw[p.Entry] = 1
	for _, e := range p.Edges() {
		bw[e.To] += w[[2]ir.BlockID{e.From, e.To}]
	}
	return bw
}

// coldSplit classifies each weighted procedure's cold blocks (see
// ColdBlocks) at coldMaxWeight.
func coldSplit(prog *cfg.Program, weights map[string]ProcWeights) map[string]map[ir.BlockID]bool {
	out := make(map[string]map[ir.BlockID]bool)
	for _, p := range prog.Procs {
		w, ok := weights[p.Name]
		if !ok {
			continue
		}
		cold := ColdBlocks(p, w, coldMaxWeight)
		if len(cold) == 0 {
			continue
		}
		set := make(map[ir.BlockID]bool, len(cold))
		for _, b := range cold {
			set[b] = true
		}
		out[p.Name] = set
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ColdBlocks returns, in block order, the blocks of p whose expected
// traversal count per invocation under edge weights w is at most
// maxWeight. The entry block is never cold (the prologue lives there), and
// a procedure where every non-entry block would be cold gets none: such a
// profile carries no contrast, and acting on it would only move the whole
// body out of line.
func ColdBlocks(p *cfg.Proc, w ProcWeights, maxWeight float64) []ir.BlockID {
	bw := blockWeights(p, w)
	var cold []ir.BlockID
	for _, b := range p.Blocks {
		if b.ID != p.Entry && bw[b.ID] <= maxWeight {
			cold = append(cold, b.ID)
		}
	}
	if len(cold) == len(p.Blocks)-1 {
		return nil
	}
	return cold
}
