// Package tomography implements Code Tomography — the paper's central
// contribution. A procedure's execution under nondeterministic inputs is a
// discrete-time Markov chain over its basic blocks (package markov) whose
// branch probabilities are unknown. The only observations are end-to-end
// durations measured at each procedure's start and end points, quantized by
// the mote's coarse hardware timer. Because every block and edge has a
// deterministic cycle cost known to the compiler, the duration distribution
// is a finite mixture over execution paths, and the branch probabilities
// can be estimated by inverting that mixture.
//
// Three estimators are provided:
//
//   - EM over the path mixture (Estimate/EstimateEM) — the primary method.
//   - Moment matching on the analytic mean/variance (EstimateMoments).
//   - Histogram nonnegative least squares (EstimateHistogram).
package tomography

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"codetomo/internal/analysis"
	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/markov"
)

// Unknown is one branch block whose outgoing distribution is estimated.
type Unknown struct {
	Block ir.BlockID
	// Edges are the block's outgoing edges in successor order.
	Edges [][2]ir.BlockID
}

// DefaultTickDiv is the timer tick, in cycles, of a model built without
// one: the mote's default prescaler.
const DefaultTickDiv = isa.DefaultTickDiv

// ModelOptions configures optional model features.
type ModelOptions struct {
	// TickDiv is the motes' timer prescaler in cycles (zero: DefaultTickDiv),
	// the width of every quantization tolerance: the EM kernel, the histogram
	// bin, the robust trim (4×), and the pipeline's coverage and envelope slack.
	TickDiv int
	// StaticResolve runs the compiler's value-range analysis over the
	// procedure and pins every branch it proves one-way: the resolved
	// blocks are removed from the unknowns (the estimator has fewer free
	// parameters and the duration mixture fewer spurious components) and
	// their edge probabilities fixed at 1/0 in every starting point. It
	// also computes the static feasible envelope for EnvelopeCheck.
	StaticResolve bool
}

// Model binds a procedure's CFG to its compiled timing metadata: the path
// set, each path's deterministic duration, and the set of unknowns.
type Model struct {
	Proc  *cfg.Proc
	Meta  *compile.Meta
	PM    *compile.ProcMeta
	Costs *markov.Costs

	Paths     []*markov.Path
	PathTimes []float64
	Truncated bool

	Unknowns []Unknown

	// Pinned holds edge probabilities fixed by the static value-range
	// analysis (1 for the proven arm, 0 for the dead one). The source
	// blocks do not appear in Unknowns; estimators must not touch these.
	Pinned markov.EdgeProbs

	// Envelope, when non-nil and Bounded, is the static feasible range of
	// one measured interval (compile.ProcStaticEnvelope); EnvelopeCheck
	// tests a fitted estimate against it.
	Envelope *compile.StaticEnvelope

	tickDiv int // ModelOptions.TickDiv; Tick resolves zero

	// Dense kernel inputs, built lazily and shared by concurrent streams:
	// the sorted path times on first use (the coverage gate needs only
	// these), the compiled paths on first estimation.
	timesOnce   sync.Once
	times       *markov.SortedTimes
	compileOnce sync.Once
	comp        *compiledModel
}

// NewModelOpts builds the estimation model for one procedure of a
// compiled program, with the optional features mo enables. pred must be
// the branch predictor of the mote the measurements came from (it
// determines per-edge penalty cycles).
func NewModelOpts(out *compile.Output, procName string, pred compile.Predictor, enum markov.EnumerateOptions, mo ModelOptions) (*Model, error) {
	pm, ok := out.Meta.ProcByName[procName]
	if !ok {
		return nil, fmt.Errorf("tomography: unknown procedure %q", procName)
	}
	proc := out.CFG.Proc(procName)
	if proc == nil {
		return nil, fmt.Errorf("tomography: procedure %q missing from CFG", procName)
	}
	costs, err := BuildCosts(out.Meta, pm, proc, pred)
	if err != nil {
		return nil, err
	}
	m := &Model{Proc: proc, Meta: out.Meta, PM: pm, Costs: costs, tickDiv: mo.TickDiv}
	m.Paths, m.Truncated = markov.Enumerate(proc, enum)
	if len(m.Paths) == 0 {
		return nil, fmt.Errorf("tomography: %q has no terminating path within bounds", procName)
	}
	m.PathTimes = markov.PathTimes(proc, m.Paths, costs)

	var resolved map[ir.BlockID]ir.BlockID
	if mo.StaticResolve {
		resolved = analysis.InferRanges(proc).ResolvedBranches()
		if len(resolved) > 0 {
			m.Pinned = make(markov.EdgeProbs, 2*len(resolved))
		}
		if env, err := out.ProcStaticEnvelope(procName); err == nil {
			m.Envelope = &env
		}
	}
	for _, bb := range proc.BranchBlocks() {
		if live, ok := resolved[bb]; ok {
			// Statically proven one-way: pin instead of estimating.
			for _, s := range proc.Block(bb).Succs() {
				p := 0.0
				if s == live {
					p = 1.0
				}
				m.Pinned[[2]ir.BlockID{bb, s}] = p
			}
			continue
		}
		u := Unknown{Block: bb}
		for _, s := range proc.Block(bb).Succs() {
			u.Edges = append(u.Edges, [2]ir.BlockID{bb, s})
		}
		m.Unknowns = append(m.Unknowns, u)
	}
	return m, nil
}

// BuildCosts converts compile metadata into the Markov chain's cost
// parameters under a given predictor.
func BuildCosts(meta *compile.Meta, pm *compile.ProcMeta, proc *cfg.Proc, pred compile.Predictor) (*markov.Costs, error) {
	costs := &markov.Costs{
		Block:         make([]float64, len(proc.Blocks)),
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: float64(pm.EntryOverhead),
	}
	for id, c := range pm.BlockCycles {
		costs.Block[int(id)] = float64(c)
	}
	for _, e := range proc.Edges() {
		extra, err := meta.EdgeExtraCycles(pm, compile.EdgeKey{From: e.From, To: e.To}, pred)
		if err != nil {
			return nil, err
		}
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(extra)
	}
	return costs, nil
}

// Tick returns the model's timer tick in cycles.
func (m *Model) Tick() float64 { return float64(cmp.Or(m.tickDiv, DefaultTickDiv)) }

// InitialProbs returns the estimators' starting point: uniform branches,
// overlaid with the statically pinned edges (which every estimator leaves
// untouched because their blocks are not unknowns).
func (m *Model) InitialProbs() markov.EdgeProbs {
	probs := markov.Uniform(m.Proc)
	for e, p := range m.Pinned {
		probs[e] = p
	}
	return probs
}

// EnvelopeCheck reports whether the expected interval duration under probs
// lies inside the static feasible envelope, within slack cycles. Estimates
// that fail it are fitting noise (or a mixture component the model cannot
// realize) and should not drive placement. Models without a bounded
// envelope always pass.
func (m *Model) EnvelopeCheck(probs markov.EdgeProbs, slack float64) bool {
	if m.Envelope == nil || !m.Envelope.Bounded {
		return true
	}
	num, den := 0.0, 0.0
	for j, pr := range m.compiled().pathProbs(probs) {
		num += pr * m.PathTimes[j]
		den += pr
	}
	if den <= 0 {
		return true
	}
	mean := num / den
	return mean >= float64(m.Envelope.MinCycles)-slack &&
		mean <= float64(m.Envelope.MaxCycles)+slack
}

// probsFromEdgeWeights converts expected edge-traversal weights into a
// probability assignment: each branch block's outgoing weights are
// normalized (with additive smoothing alpha so no edge is pinned to zero);
// unconditional edges stay 1.
func (m *Model) probsFromEdgeWeights(w map[[2]ir.BlockID]float64, alpha float64) markov.EdgeProbs {
	probs := m.InitialProbs()
	for _, u := range m.Unknowns {
		total := 0.0
		for _, e := range u.Edges {
			total += w[e] + alpha
		}
		if total <= 0 {
			continue // keep uniform
		}
		for _, e := range u.Edges {
			probs[e] = (w[e] + alpha) / total
		}
	}
	return probs
}

// Coverage returns the fraction of samples lying within halfWidth of some
// enumerated path's duration. Low coverage means the path model does not
// explain the observations (usually a loop whose realized iteration counts
// exceed the unrolling bound) and the estimate should not be trusted.
func (m *Model) Coverage(samples []float64, halfWidth float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	// Binary search over the sorted path times; the predicate is exactly
	// the linear scan's |s − τ| <= halfWidth.
	times := m.sortedTimes()
	hit := 0
	for _, s := range samples {
		if times.Within(s, halfWidth) {
			hit++
		}
	}
	return float64(hit) / float64(len(samples))
}

// BranchAmbiguity returns, for each branch block, the (uniform-prior)
// probability mass of paths whose usage of that block's outgoing edges
// cannot be determined from the observed duration: some path within
// window cycles uses the block's arms differently. Paths further apart
// than a few cycles remain statistically separable even under a coarse
// timer (their tick distributions differ), so the window should be small —
// the pipeline uses ~half the tick. An ambiguity near 1 means
// the duration mixture carries no information about that branch at the
// given timer resolution — EM will converge confidently to an arbitrary
// answer for it. Unlike Coverage this needs no samples; it is a structural
// property of the program and the clock.
func (m *Model) BranchAmbiguity(window float64) map[ir.BlockID]float64 {
	out := make(map[ir.BlockID]float64, len(m.Unknowns))
	n := len(m.Paths)
	if n == 0 {
		return out
	}
	c := m.compiled()
	prior := c.pathProbs(m.InitialProbs())
	total := 0.0
	for _, pr := range prior {
		total += pr
	}
	if total == 0 {
		return out
	}
	if window <= 0 {
		window = 1
	}
	bucketOf := func(t float64) int64 { return int64(t / window) }

	// Per-path signature of each unknown: its out-edge traversal counts.
	// cnt holds one path's dense edge counts at a time.
	sigs := make([][]uint64, len(m.Unknowns))
	for ui := range sigs {
		sigs[ui] = make([]uint64, n)
	}
	cnt := make([]float64, c.paths.Index.Len())
	for j := 0; j < n; j++ {
		edges, counts := c.paths.Arcs(j)
		for k, e := range edges {
			cnt[e] = counts[k]
		}
		for ui, idx := range c.unknown {
			s := uint64(0)
			for _, e := range idx {
				s = s*1000003 + uint64(cnt[e])
			}
			sigs[ui][j] = s
		}
		for _, e := range edges {
			cnt[e] = 0
		}
	}
	for ui, u := range m.Unknowns {
		sig := sigs[ui]
		type bs struct {
			sig      uint64
			multiple bool
		}
		buckets := make(map[int64]*bs)
		for j := range m.Paths {
			b := bucketOf(m.PathTimes[j])
			cur := buckets[b]
			if cur == nil {
				buckets[b] = &bs{sig: sig[j]}
			} else if !cur.multiple && cur.sig != sig[j] {
				cur.multiple = true
			}
		}
		mass := 0.0
		for j := range m.Paths {
			b := bucketOf(m.PathTimes[j])
			conf := false
			for _, nb := range [3]int64{b - 1, b, b + 1} {
				if cur := buckets[nb]; cur != nil && (cur.multiple || cur.sig != sig[j]) {
					conf = true
					break
				}
			}
			if conf {
				mass += prior[j]
			}
		}
		out[u.Block] = mass / total
	}
	return out
}

// BranchEdgeList returns the branch edges in a stable order — the vector
// layout used when comparing estimates against ground truth.
func (m *Model) BranchEdgeList() [][2]ir.BlockID {
	var out [][2]ir.BlockID
	for _, u := range m.Unknowns {
		out = append(out, u.Edges...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ProbVector projects an EdgeProbs assignment onto the BranchEdgeList
// layout.
func (m *Model) ProbVector(probs markov.EdgeProbs) []float64 {
	edges := m.BranchEdgeList()
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = probs[e]
	}
	return out
}
