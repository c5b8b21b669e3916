// Package layout implements profile-guided basic-block placement — the
// consumer of Code Tomography's estimates. Given edge weights (estimated or
// exact), it orders each procedure's blocks so that hot edges become
// fall-throughs, which under the mote's static branch prediction directly
// reduces mispredicted (penalized) branches. The algorithm is the classic
// Pettis–Hansen bottom-up chaining.
package layout

import (
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// Weights are edge weights — expected or measured traversal counts.
type Weights map[[2]ir.BlockID]float64

// FromProbs converts branch probabilities into expected edge traversal
// weights via the Markov chain (frequency matters for chaining: an edge
// inside a hot loop outweighs a one-shot edge with the same probability).
// If the chain is not absorbing under probs, the probabilities themselves
// are used as weights.
func FromProbs(proc *cfg.Proc, probs markov.EdgeProbs) Weights {
	chain, err := markov.New(proc, probs)
	if err == nil {
		if tr, err := chain.ExpectedEdgeTraversals(); err == nil {
			return Weights(tr)
		}
	}
	w := make(Weights, len(probs))
	for k, v := range probs {
		w[k] = v
	}
	return w
}

// Optimize returns a block emission order for the procedure that makes
// high-weight edges fall-throughs (Pettis–Hansen bottom-up chaining):
//
//  1. every block starts as a singleton chain;
//  2. edges are visited in decreasing weight; an edge whose source is a
//     chain tail and whose target is a different chain's head merges the
//     two chains (making the edge a fall-through);
//  3. chains are emitted starting with the entry chain, then repeatedly
//     the chain most strongly connected to the already-placed blocks.
func Optimize(proc *cfg.Proc, weights Weights) []ir.BlockID {
	n := len(proc.Blocks)
	// chainOf[b] = chain index; chains[i] = block sequence (nil = merged).
	chainOf := make([]int, n)
	chains := make([][]ir.BlockID, n)
	for i := 0; i < n; i++ {
		chainOf[i] = i
		chains[i] = []ir.BlockID{ir.BlockID(i)}
	}

	type wedge struct {
		e [2]ir.BlockID
		w float64
	}
	var edges []wedge
	for _, e := range proc.Edges() {
		key := [2]ir.BlockID{e.From, e.To}
		edges = append(edges, wedge{e: key, w: weights[key]})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].e[0] != edges[j].e[0] {
			return edges[i].e[0] < edges[j].e[0]
		}
		return edges[i].e[1] < edges[j].e[1]
	})

	// maxOut[b] is the largest outgoing weight of each block: only a
	// block's hottest out-edge may become its fall-through. Falling
	// through to a colder arm would force the hot arm onto the taken
	// (mispredicted) side, which is worse than leaving the block
	// chain-terminal and letting the backend's polarity choice put the
	// conditional branch on the cold arm.
	maxOut := make(map[ir.BlockID]float64, n)
	for _, we := range edges {
		if we.w > maxOut[we.e[0]] {
			maxOut[we.e[0]] = we.w
		}
	}

	for _, we := range edges {
		a, b := we.e[0], we.e[1]
		if we.w < maxOut[a] {
			continue
		}
		ca, cb := chainOf[a], chainOf[b]
		if ca == cb {
			continue
		}
		tailA := chains[ca][len(chains[ca])-1]
		headB := chains[cb][0]
		if tailA != a || headB != b {
			continue
		}
		// Merge cb onto ca.
		for _, blk := range chains[cb] {
			chainOf[blk] = ca
		}
		chains[ca] = append(chains[ca], chains[cb]...)
		chains[cb] = nil
	}

	// Emit: entry chain first, then greedily the chain with the strongest
	// connection to placed blocks. Connection strengths are cached rather
	// than rescanned per candidate per round: each chain's incoming
	// cross-chain edges are collected once in proc.Edges() order, and when
	// a chain is placed only the chains it feeds are re-summed — over the
	// same ordered edge list, so every sum adds the same floats in the
	// same order as a full rescan and the selection (ties included) is
	// bit-identical to the quadratic loop this replaces.
	type inEdge struct {
		from int // source chain
		w    float64
	}
	inEdges := make([][]inEdge, n)
	feeds := make([][]int, n) // dedup'd target chains per source chain
	fed := make(map[[2]int]bool)
	for _, e := range proc.Edges() {
		cf, ct := chainOf[e.From], chainOf[e.To]
		if cf == ct {
			continue
		}
		inEdges[ct] = append(inEdges[ct], inEdge{from: cf, w: weights[[2]ir.BlockID{e.From, e.To}]})
		if !fed[[2]int{cf, ct}] {
			fed[[2]int{cf, ct}] = true
			feeds[cf] = append(feeds[cf], ct)
		}
	}

	placed := make([]bool, n)
	conn := make([]float64, n)
	resum := func(ci int) {
		s := 0.0
		for _, ie := range inEdges[ci] {
			if placed[ie.from] {
				s += ie.w
			}
		}
		conn[ci] = s
	}

	var order []ir.BlockID
	emit := func(ci int) {
		order = append(order, chains[ci]...)
		placed[ci] = true
		for _, ct := range feeds[ci] {
			if !placed[ct] {
				resum(ct)
			}
		}
	}
	emit(chainOf[proc.Entry])
	for len(order) < n {
		best, bestW := -1, -1.0
		for ci, ch := range chains {
			if ch == nil || placed[ci] {
				continue
			}
			w := conn[ci]
			if w > bestW || (w == bestW && (best == -1 || chains[ci][0] < chains[best][0])) {
				best, bestW = ci, w
			}
		}
		if best == -1 {
			break
		}
		emit(best)
	}
	return order
}

// Hints computes per-branch polarity hints from edge weights: true when
// the Br's True successor is at least as likely as the False one. The
// backend uses them for branches left without a fall-through.
func Hints(proc *cfg.Proc, weights Weights) map[ir.BlockID]bool {
	out := make(map[ir.BlockID]bool)
	for _, bb := range proc.BranchBlocks() {
		br, ok := proc.Block(bb).Term.(ir.Br)
		if !ok {
			continue
		}
		wt := weights[[2]ir.BlockID{bb, br.True}]
		wf := weights[[2]ir.BlockID{bb, br.False}]
		out[bb] = wt >= wf
	}
	return out
}

// Plan is a whole-program placement decision: block orders plus branch
// polarity hints, ready to hand to compile.Options.
type Plan struct {
	Layouts map[string][]ir.BlockID
	Hints   map[string]map[ir.BlockID]bool
}

// PlanAll computes layouts and polarity hints for the procedures present
// in probs. Procedures without an entry keep their original order — the
// right behaviour when a profile source could not produce a trustworthy
// estimate for them (reordering on no information can only hurt).
func PlanAll(prog *cfg.Program, probs map[string]markov.EdgeProbs) Plan {
	plan := Plan{
		Layouts: make(map[string][]ir.BlockID, len(probs)),
		Hints:   make(map[string]map[ir.BlockID]bool, len(probs)),
	}
	for _, p := range prog.Procs {
		ep, ok := probs[p.Name]
		if !ok {
			continue
		}
		w := FromProbs(p, ep)
		plan.Layouts[p.Name] = Optimize(p, w)
		plan.Hints[p.Name] = Hints(p, w)
	}
	return plan
}

// Random returns a seeded random permutation with the entry block first —
// the pessimal-ish baseline layout.
func Random(proc *cfg.Proc, seed int64) []ir.BlockID {
	rng := stats.NewRNG(seed)
	rest := make([]ir.BlockID, 0, len(proc.Blocks)-1)
	for i := range proc.Blocks {
		if ir.BlockID(i) != proc.Entry {
			rest = append(rest, ir.BlockID(i))
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append([]ir.BlockID{proc.Entry}, rest...)
}

// RandomAll returns random layouts for all procedures.
func RandomAll(prog *cfg.Program, seed int64) map[string][]ir.BlockID {
	out := make(map[string][]ir.BlockID, len(prog.Procs))
	for i, p := range prog.Procs {
		out[p.Name] = Random(p, seed+int64(i))
	}
	return out
}
