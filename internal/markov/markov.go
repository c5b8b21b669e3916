// Package markov models a procedure's execution as a discrete-time
// absorbing Markov chain, exactly as the paper frames it: basic blocks are
// states, procedure exit is the absorbing state, and conditional branches
// carry unknown transition probabilities. Given branch probabilities it
// computes expected block visit counts and the mean/variance of the
// end-to-end duration; it also enumerates execution paths (with a loop
// unrolling bound) for the mixture-based estimators.
package markov

import (
	"errors"
	"fmt"
	"math"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/linalg"
)

// EdgeProbs maps CFG edges (from, to block IDs) to transition
// probabilities. Unconditional edges have probability 1; each branch
// block's outgoing probabilities must sum to 1.
type EdgeProbs map[[2]ir.BlockID]float64

// Clone deep-copies the probability map.
func (ep EdgeProbs) Clone() EdgeProbs {
	out := make(EdgeProbs, len(ep))
	for k, v := range ep {
		out[k] = v
	}
	return out
}

// Uniform returns edge probabilities that split every branch evenly — the
// estimators' starting point.
func Uniform(p *cfg.Proc) EdgeProbs {
	ep := make(EdgeProbs)
	for _, b := range p.Blocks {
		succs := b.Succs()
		if len(succs) == 0 {
			continue
		}
		q := 1 / float64(len(succs))
		for _, s := range succs {
			ep[[2]ir.BlockID{b.ID, s}] = q
		}
	}
	return ep
}

// ErrNotAbsorbing is returned when the chain cannot reach the exit from
// some visited state (an infinite loop under the given probabilities).
var ErrNotAbsorbing = errors.New("markov: exit unreachable (chain is not absorbing)")

// Chain is the absorbing DTMC of one procedure under given probabilities.
type Chain struct {
	proc  *cfg.Proc
	probs EdgeProbs
}

// New validates the probabilities against the CFG and builds a chain.
func New(p *cfg.Proc, probs EdgeProbs) (*Chain, error) {
	for _, b := range p.Blocks {
		succs := b.Succs()
		if len(succs) == 0 {
			continue
		}
		sum := 0.0
		for _, s := range succs {
			q, ok := probs[[2]ir.BlockID{b.ID, s}]
			if !ok {
				return nil, fmt.Errorf("markov: %s: missing probability for edge %v->%v", p.Name, b.ID, s)
			}
			if q < 0 || q > 1 || math.IsNaN(q) {
				return nil, fmt.Errorf("markov: %s: edge %v->%v probability %v out of range", p.Name, b.ID, s, q)
			}
			sum += q
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, fmt.Errorf("markov: %s: block %v outgoing probabilities sum to %v", p.Name, b.ID, sum)
		}
	}
	return &Chain{proc: p, probs: probs}, nil
}

// transition returns P as a dense matrix over block indices (transient
// states only; the absorbing exit is implicit).
func (c *Chain) transition() *linalg.Matrix {
	n := len(c.proc.Blocks)
	p := linalg.NewMatrix(n, n)
	for _, b := range c.proc.Blocks {
		for _, s := range b.Succs() {
			p.Add(int(b.ID), int(s), c.probs[[2]ir.BlockID{b.ID, s}])
		}
	}
	return p
}

// ExpectedVisits returns, for each block, the expected number of visits in
// one invocation started at the entry: n = (I − Pᵀ)⁻¹ e_entry.
func (c *Chain) ExpectedVisits() ([]float64, error) {
	n := len(c.proc.Blocks)
	p := c.transition()
	a := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, -p.At(j, i)) // transpose of P
		}
	}
	rhs := make([]float64, n)
	rhs[int(c.proc.Entry)] = 1
	visits, err := linalg.Solve(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotAbsorbing, err)
	}
	for i, v := range visits {
		if v < -1e-9 {
			return nil, fmt.Errorf("markov: negative expected visits %v for block %d", v, i)
		}
		if v < 0 {
			visits[i] = 0
		}
	}
	return visits, nil
}

// ExpectedEdgeTraversals returns the expected traversal count of each edge:
// visits(from) · p(edge).
func (c *Chain) ExpectedEdgeTraversals() (map[[2]ir.BlockID]float64, error) {
	visits, err := c.ExpectedVisits()
	if err != nil {
		return nil, err
	}
	out := make(map[[2]ir.BlockID]float64)
	for _, b := range c.proc.Blocks {
		for _, s := range b.Succs() {
			key := [2]ir.BlockID{b.ID, s}
			out[key] = visits[int(b.ID)] * c.probs[key]
		}
	}
	return out, nil
}

// Costs carries the deterministic timing parameters of the chain: the cycle
// cost of each block, the extra cycles on each edge, and the fixed
// per-invocation overhead. These come straight from the compiler metadata.
type Costs struct {
	Block         []float64 // indexed by block ID
	Edge          map[[2]ir.BlockID]float64
	EntryOverhead float64
}

// reward returns r(u,v): the cost charged when transitioning u→v (block
// u's cost plus the edge extra). Exit transitions (to the implicit
// absorbing state) charge only the block cost.
func (c *Chain) reward(costs *Costs, u ir.BlockID, v ir.BlockID, toAbsorbing bool) float64 {
	r := costs.Block[int(u)]
	if !toAbsorbing {
		r += costs.Edge[[2]ir.BlockID{u, v}]
	}
	return r
}

// MeanVar returns the mean and variance of one invocation's duration under
// the chain, by first-step analysis of the accumulated transition rewards:
//
//	m1(u) = Σ_v p(u,v)·(r(u,v) + m1(v))
//	m2(u) = Σ_v p(u,v)·(r(u,v)² + 2·r(u,v)·m1(v) + m2(v))
//
// solved as two linear systems in the transient states.
func (c *Chain) MeanVar(costs *Costs) (mean, variance float64, err error) {
	n := len(c.proc.Blocks)
	if len(costs.Block) != n {
		return 0, 0, fmt.Errorf("markov: %d block costs for %d blocks", len(costs.Block), n)
	}
	p := c.transition()
	a := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, -p.At(i, j))
		}
	}
	fact, err := linalg.Factor(a)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrNotAbsorbing, err)
	}

	// First moment.
	r1 := make([]float64, n)
	for _, b := range c.proc.Blocks {
		succs := b.Succs()
		if len(succs) == 0 {
			r1[int(b.ID)] = c.reward(costs, b.ID, 0, true)
			continue
		}
		for _, s := range succs {
			q := c.probs[[2]ir.BlockID{b.ID, s}]
			r1[int(b.ID)] += q * c.reward(costs, b.ID, s, false)
		}
	}
	m1, err := fact.SolveVec(r1)
	if err != nil {
		return 0, 0, err
	}

	// Second moment.
	r2 := make([]float64, n)
	for _, b := range c.proc.Blocks {
		succs := b.Succs()
		if len(succs) == 0 {
			r := c.reward(costs, b.ID, 0, true)
			r2[int(b.ID)] = r * r
			continue
		}
		for _, s := range succs {
			q := c.probs[[2]ir.BlockID{b.ID, s}]
			r := c.reward(costs, b.ID, s, false)
			r2[int(b.ID)] += q * (r*r + 2*r*m1[int(s)])
		}
	}
	m2, err := fact.SolveVec(r2)
	if err != nil {
		return 0, 0, err
	}

	e := int(c.proc.Entry)
	mean = m1[e] + costs.EntryOverhead
	variance = m2[e] - m1[e]*m1[e]
	if variance < 0 && variance > -1e-6 {
		variance = 0
	}
	return mean, variance, nil
}
