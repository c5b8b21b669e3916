package compile

import (
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// Superblock formation thresholds: a trace grows along an out-edge only
// when that edge carries at least traceBiasFrac of its source's outgoing
// flow and at least traceMinEdgeW expected traversals per invocation; seeds
// must be at least traceMinSeedW hot; traces stop at traceMaxBlocks.
const (
	traceBiasFrac  = 0.6
	traceMinEdgeW  = 0.5
	traceMinSeedW  = 1.0
	traceMaxBlocks = 16
)

// formSuperblocks straightens each weighted procedure's hot paths: traces
// are grown from the hottest blocks along dominant out-edges, and side
// entrances into a trace's interior are removed by duplicating the trace
// tail, so that after placement the hot path is fall-through code with a
// single entry at the top. Tail duplication is bounded by tailDupMaxInstrs
// duplicated IR instructions per procedure.
func formSuperblocks(prog *cfg.Program, weights map[string]ProcWeights) {
	for _, p := range prog.Procs {
		w, ok := weights[p.Name]
		if !ok {
			continue
		}
		superblockProc(p, w, tailDupMaxInstrs)
	}
}

func superblockProc(p *cfg.Proc, w ProcWeights, budget int) {
	used := make(map[ir.BlockID]bool)
	for budget > 0 {
		bw := blockWeights(p, w)
		seed, ok := hottestSeed(p, bw, used)
		if !ok {
			return
		}
		trace := growTrace(p, w, seed, used)
		for _, b := range trace {
			used[b] = true
		}
		if len(trace) >= 2 {
			budget -= tailDuplicate(p, w, trace, budget)
		}
	}
}

// hottestSeed picks the hottest unused block (ties to the lower ID) that is
// hot enough to seed a trace.
func hottestSeed(p *cfg.Proc, bw map[ir.BlockID]float64, used map[ir.BlockID]bool) (ir.BlockID, bool) {
	type cand struct {
		id ir.BlockID
		w  float64
	}
	var cands []cand
	for _, b := range p.Blocks {
		if used[b.ID] || bw[b.ID] < traceMinSeedW {
			continue
		}
		cands = append(cands, cand{b.ID, bw[b.ID]})
	}
	if len(cands) == 0 {
		return 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].id < cands[j].id
	})
	return cands[0].id, true
}

// growTrace extends a trace forward from seed along the hottest out-edge
// while that edge is dominant and hot, never revisiting a block, entering
// the procedure entry, or crossing into another trace.
func growTrace(p *cfg.Proc, w ProcWeights, seed ir.BlockID, used map[ir.BlockID]bool) []ir.BlockID {
	trace := []ir.BlockID{seed}
	inTrace := map[ir.BlockID]bool{seed: true}
	u := seed
	for len(trace) < traceMaxBlocks {
		var total, bestW float64
		best := ir.BlockID(-1)
		for _, s := range p.Block(u).Succs() {
			wt := w[[2]ir.BlockID{u, s}]
			total += wt
			if best == -1 || wt > bestW || (wt == bestW && s < best) {
				best, bestW = s, wt
			}
		}
		if best == -1 || bestW < traceMinEdgeW || bestW < traceBiasFrac*total {
			break
		}
		if best == p.Entry || used[best] || inTrace[best] {
			break
		}
		trace = append(trace, best)
		inTrace[best] = true
		u = best
	}
	return trace
}

// tailDuplicate removes side entrances from a trace's interior. The first
// side-entered position j splits the trace: [0,j) keeps its blocks, and
// [j,end) is duplicated into a parallel chain that the side predecessors
// are redirected into, while the original chain remains reachable only
// through the trace itself. The back edge into the trace head is not a side
// entrance (that is the superblock loop case). Duplication is truncated
// from the tail to fit the remaining budget; returns the IR instructions
// duplicated.
func tailDuplicate(p *cfg.Proc, w ProcWeights, trace []ir.BlockID, budget int) int {
	preds := p.Preds()
	sideAt := -1
	for j := 1; j < len(trace); j++ {
		for _, pr := range preds[trace[j]] {
			if pr != trace[j-1] {
				sideAt = j
				break
			}
		}
		if sideAt >= 0 {
			break
		}
	}
	if sideAt < 0 {
		return 0
	}

	// Truncate the trace until the duplicated suffix fits the budget.
	cost := 0
	for i := sideAt; i < len(trace); i++ {
		cost += len(p.Block(trace[i]).Instrs)
	}
	for cost > budget && len(trace) > sideAt {
		cost -= len(p.Block(trace[len(trace)-1]).Instrs)
		trace = trace[:len(trace)-1]
	}
	if len(trace) <= sideAt {
		return 0
	}
	n := len(trace)

	// Snapshot the suffix blocks' outgoing flow before any mutation; the
	// redistribution below needs the pre-duplication branch probabilities.
	type outSnap struct {
		succs []ir.BlockID
		wt    map[ir.BlockID]float64
		total float64
	}
	snap := make([]outSnap, n)
	for i := sideAt; i < n; i++ {
		b := p.Block(trace[i])
		s := outSnap{succs: append([]ir.BlockID(nil), b.Succs()...), wt: make(map[ir.BlockID]float64)}
		for _, sc := range s.succs {
			wt := w[[2]ir.BlockID{trace[i], sc}]
			s.wt[sc] = wt
			s.total += wt
		}
		snap[i] = s
	}
	prob := func(i int, s ir.BlockID) float64 {
		if snap[i].total <= 0 {
			return 0
		}
		return snap[i].wt[s] / snap[i].total
	}

	// Duplicate the suffix; each duplicate's in-trace arm continues into
	// the next duplicate, every other arm keeps its original target.
	baseID := ir.BlockID(len(p.Blocks))
	dupID := func(i int) ir.BlockID { return baseID + ir.BlockID(i-sideAt) }
	for i := sideAt; i < n; i++ {
		ob := p.Block(trace[i])
		nb := &cfg.Block{
			ID:     dupID(i),
			Label:  ob.Label + "_dup",
			Instrs: append([]ir.Instr(nil), ob.Instrs...),
			Term:   ob.Term,
		}
		if len(ob.SrcPos) > 0 {
			nb.SrcPos = append([]ir.Pos(nil), ob.SrcPos...)
		}
		if i+1 < n {
			nb.Term = redirect(ob.Term, trace[i+1], dupID(i+1))
		}
		p.Blocks = append(p.Blocks, nb)
	}

	// Rescale the original suffix's out-edges to the flow that still
	// reaches it once side entrances leave: only the trace edge from
	// position sideAt-1 feeds the original chain.
	g := w[[2]ir.BlockID{trace[sideAt-1], trace[sideAt]}]
	for i := sideAt; i < n; i++ {
		for _, s := range snap[i].succs {
			w[[2]ir.BlockID{trace[i], s}] = g * prob(i, s)
		}
		if i+1 < n {
			g *= prob(i, trace[i+1])
		}
	}

	// Redirect side predecessors into the duplicates and move their edge
	// weights (a redirected trace-internal skip edge carries its rescaled
	// weight, which is exactly the flow it now injects into the chain).
	sideIn := make([]float64, n)
	for i := sideAt; i < n; i++ {
		for _, pr := range preds[trace[i]] {
			if pr == trace[i-1] {
				continue
			}
			src := p.Block(pr)
			src.Term = redirect(src.Term, trace[i], dupID(i))
			key := [2]ir.BlockID{pr, trace[i]}
			if wt, ok := w[key]; ok {
				sideIn[i] += wt
				w[[2]ir.BlockID{pr, dupID(i)}] += wt
				delete(w, key)
			}
		}
	}

	// Cascade the side inflow down the duplicate chain using the original
	// branch probabilities.
	f := 0.0
	for i := sideAt; i < n; i++ {
		f += sideIn[i]
		for _, s := range snap[i].succs {
			target := s
			if i+1 < n && s == trace[i+1] {
				target = dupID(i + 1)
			}
			w[[2]ir.BlockID{dupID(i), target}] += f * prob(i, s)
		}
		if i+1 < n {
			f *= prob(i, trace[i+1])
		}
	}
	return cost
}
