// Package analysis provides static analyses over the compiler's CFG form
// (package cfg): a generic iterative dataflow solver with concrete
// instances — variable liveness and definite assignment — plus an inter-pass IR verifier (Verify) and static
// worst-case cost bounds (cycles, stack, code size) checked against the
// M16 part limits.
//
// The solver works on the classic gen/kill bit-vector formulation: a
// Problem names the direction (forward/backward), the meet (may = union,
// must = intersection), per-block gen and kill sets, and the boundary
// fact. Solve iterates a worklist seeded in reverse postorder until the
// fixpoint, touching only blocks reachable from the entry.
package analysis

import "codetomo/internal/cfg"

// Direction selects how facts flow through the CFG.
type Direction int

// Dataflow directions.
const (
	Forward Direction = iota
	Backward
)

// Problem is a monotone gen/kill dataflow problem over bit-vector facts.
// OUT[b] = gen[b] ∪ (IN[b] − kill[b]) for forward problems (swap IN/OUT
// for backward ones); IN[b] is the meet over predecessor OUTs.
type Problem struct {
	Dir Direction
	// May selects the meet operator: union for may-analyses (liveness),
	// intersection for must-analyses (definite assignment).
	May bool
	// Bits is the width of the fact vectors.
	Bits int
	// Gen and Kill are indexed by block ID.
	Gen, Kill []Bits
	// Boundary is the fact at the CFG boundary: IN of the entry block for
	// forward problems, OUT of every exit block for backward ones. A nil
	// Boundary means the empty set.
	Boundary Bits
}

// Result holds the per-block fixpoint. In and Out are indexed by block ID
// and are always in *program order*: In[b] is the fact at the top of block
// b and Out[b] at the bottom, regardless of direction. Entries for blocks
// unreachable from the entry are zero vectors.
type Result struct {
	In, Out []Bits
}

// Solve computes the fixpoint of the problem over the procedure's CFG.
func Solve(p *cfg.Proc, prob *Problem) *Result {
	n := len(p.Blocks)
	res := &Result{In: make([]Bits, n), Out: make([]Bits, n)}
	for i := 0; i < n; i++ {
		res.In[i] = NewBits(prob.Bits)
		res.Out[i] = NewBits(prob.Bits)
	}

	rpo := p.ReversePostorder()
	// Iteration order: reverse postorder for forward problems, postorder
	// for backward ones — both reach the fixpoint in few sweeps on
	// reducible CFGs.
	order := make([]int, 0, len(rpo))
	for _, id := range rpo {
		order = append(order, int(id))
	}
	if prob.Dir == Backward {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	reachable := make([]bool, n)
	for _, id := range rpo {
		reachable[id] = true
	}

	// meetInput(b) is the fact flowing into block b from its CFG
	// neighbors: predecessors for forward problems, successors for
	// backward ones.
	preds := p.Preds()
	neighbors := func(b int) []int {
		var out []int
		if prob.Dir == Forward {
			for _, pr := range preds[p.Blocks[b].ID] {
				if reachable[pr] {
					out = append(out, int(pr))
				}
			}
		} else {
			for _, s := range p.Blocks[b].Succs() {
				out = append(out, int(s))
			}
		}
		return out
	}
	// atBoundary reports whether block b sits on the CFG boundary for this
	// direction (the entry for forward, an exit for backward).
	atBoundary := func(b int) bool {
		if prob.Dir == Forward {
			return b == int(p.Entry)
		}
		return len(p.Blocks[b].Succs()) == 0
	}
	// side(b) returns the meet-side and flow-side vectors of block b in
	// program order: (In, Out) for forward, (Out, In) for backward.
	side := func(b int) (meet, flow Bits) {
		if prob.Dir == Forward {
			return res.In[b], res.Out[b]
		}
		return res.Out[b], res.In[b]
	}

	boundary := prob.Boundary
	if boundary == nil {
		boundary = NewBits(prob.Bits)
	}

	// Initialize flow-side values: top is the full set for must-analyses
	// so that intersection meets start permissive, empty for may-analyses.
	for _, b := range order {
		_, flow := side(b)
		if !prob.May {
			flow.Fill(prob.Bits)
		}
		if atBoundary(b) && prob.Dir == Backward {
			// Exit blocks flow the boundary fact directly.
			meet, _ := side(b)
			meet.CopyFrom(boundary)
		}
	}

	apply := func(b int) bool {
		meet, flow := side(b)
		// Meet over neighbors.
		ns := neighbors(b)
		switch {
		case atBoundary(b) && prob.Dir == Forward:
			meet.CopyFrom(boundary)
		case len(ns) == 0:
			if prob.Dir == Backward {
				meet.CopyFrom(boundary)
			}
		default:
			tmp := NewBits(prob.Bits)
			if !prob.May {
				tmp.Fill(prob.Bits)
			}
			for _, nb := range ns {
				_, nflow := side(nb)
				if prob.May {
					tmp.UnionWith(nflow)
				} else {
					tmp.IntersectWith(nflow)
				}
			}
			meet.CopyFrom(tmp)
		}
		// Transfer: flow = gen ∪ (meet − kill).
		next := meet.Clone()
		if prob.Kill != nil {
			next.AndNotWith(prob.Kill[b])
		}
		if prob.Gen != nil {
			next.UnionWith(prob.Gen[b])
		}
		if next.Equal(flow) {
			return false
		}
		flow.CopyFrom(next)
		return true
	}

	// Worklist iteration to the fixpoint.
	inList := make([]bool, n)
	var list []int
	for _, b := range order {
		list = append(list, b)
		inList[b] = true
	}
	// Dependents of b: the blocks whose meet input includes b's flow value.
	dependents := func(b int) []int {
		var out []int
		if prob.Dir == Forward {
			for _, s := range p.Blocks[b].Succs() {
				out = append(out, int(s))
			}
		} else {
			for _, pr := range preds[p.Blocks[b].ID] {
				if reachable[pr] {
					out = append(out, int(pr))
				}
			}
		}
		return out
	}
	for len(list) > 0 {
		b := list[0]
		list = list[1:]
		inList[b] = false
		if apply(b) {
			for _, d := range dependents(b) {
				if !inList[d] && reachable[d] {
					list = append(list, d)
					inList[d] = true
				}
			}
		}
	}
	return res
}
