package compile

import (
	"fmt"
	"math"

	"codetomo/internal/analysis"
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
)

// EliminateDeadBranches rewrites conditional branches whose direction the
// range analysis proves into unconditional jumps, then prunes the blocks
// that become unreachable. The branch block's body — including the
// computation of the now-unused condition — is preserved, so observable
// behavior is bit-identical: the proof only says the condition's value is
// fixed, and removing the dead arm cannot change any executed instruction.
func EliminateDeadBranches(prog *cfg.Program) {
	for _, p := range prog.Procs {
		r := analysis.InferRanges(p)
		res := r.ResolvedBranches()
		if len(res) == 0 {
			continue
		}
		for b, live := range res {
			p.Block(b).Term = ir.Jmp{Target: live}
		}
		// Dead arms may leave empty forwarders and unreachable regions;
		// threadJumps prunes both.
		threadJumps(p)
	}
}

// WorstCaseEdgeExtra bounds EdgeExtraCycles over every predictor: it
// charges the mispredict penalty whenever the edge is decided by a
// conditional branch, plus the explicit JMP and any deterministic extra.
func (m *Meta) WorstCaseEdgeExtra(info EdgeInfo) uint64 {
	var extra uint64
	if info.BranchPC >= 0 {
		extra += uint64(m.Cost.TakenPenalty)
	}
	if info.ViaJmp {
		extra += uint64(m.Cost.Cycles[isa.JMP])
	}
	return extra + info.Extra + m.pageExtra(info)
}

// StaticBound is a provable, predictor-independent worst-case bound for one
// procedure of a compiled program, under the measured-interval convention
// (the same one trace extraction and Meta.PathCycles use).
type StaticBound struct {
	analysis.WCET
	// Trips are the loop trip bounds that went into the WCET, keyed by
	// header.
	Trips map[ir.BlockID]analysis.TripBound
	// ResolvedBranches maps branch blocks whose direction the range
	// analysis proves to the only successor that can execute.
	ResolvedBranches map[ir.BlockID]ir.BlockID
}

// ProcStaticBound composes the range analysis, loop trip inference, and the
// backend's exact block/edge cycle metadata into a worst-case cycle bound
// for one procedure, including its entry overhead. The bound holds for any
// predictor because every branch is charged its mispredict penalty.
func (out *Output) ProcStaticBound(name string) (StaticBound, error) {
	p := out.CFG.Proc(name)
	pm := out.Meta.ProcByName[name]
	if p == nil || pm == nil {
		return StaticBound{}, fmt.Errorf("compile: no procedure %q", name)
	}
	r := analysis.InferRanges(p)
	trips := analysis.LoopTripBounds(p, r)
	edgeExtra := make(map[[2]ir.BlockID]uint64, len(pm.Edges))
	for e, info := range pm.Edges {
		edgeExtra[[2]ir.BlockID{e.From, e.To}] = out.Meta.WorstCaseEdgeExtra(info)
	}
	w := analysis.ProcWCET(p, pm.BlockCycles, edgeExtra, trips)
	if w.Cycles <= math.MaxUint64-pm.EntryOverhead {
		w.Cycles += pm.EntryOverhead
	}
	return StaticBound{WCET: w, Trips: trips, ResolvedBranches: r.ResolvedBranches()}, nil
}

// StaticEnvelope is the feasible range of one measured interval of a
// procedure: no exclusive-duration observation can fall outside
// [MinCycles, MaxCycles] when Bounded.
type StaticEnvelope struct {
	// MinCycles is the cheapest complete path under a zero-penalty
	// traversal (entry overhead included) — a lower bound on any interval.
	MinCycles uint64
	// MaxCycles is the WCET (entry overhead included). Meaningless unless
	// Bounded.
	MaxCycles uint64
	Bounded   bool
}

// ProcStaticEnvelope bounds every feasible measured interval of a
// procedure. The lower bound is the shortest entry-to-return path with all
// edge extras at their minimum (only deterministic extras charged); the
// upper bound is the predictor-independent WCET.
func (out *Output) ProcStaticEnvelope(name string) (StaticEnvelope, error) {
	sb, err := out.ProcStaticBound(name)
	if err != nil {
		return StaticEnvelope{}, err
	}
	p := out.CFG.Proc(name)
	pm := out.Meta.ProcByName[name]
	min, ok := out.Meta.shortestReturnPath(p, pm)
	if !ok {
		// No return reachable (event-loop procedure): no complete interval
		// is ever measured, so the envelope is vacuous.
		return StaticEnvelope{Bounded: false}, nil
	}
	return StaticEnvelope{
		MinCycles: min + pm.EntryOverhead,
		MaxCycles: sb.Cycles,
		Bounded:   sb.Bounded,
	}, nil
}

// shortestReturnPath computes the minimum-cost entry-to-return block path
// (block cycles plus deterministic edge extras only — the cheapest any
// predictor can realize). Dijkstra over non-negative costs.
func (m *Meta) shortestReturnPath(p *cfg.Proc, pm *ProcMeta) (uint64, bool) {
	const inf = math.MaxUint64
	dist := make(map[ir.BlockID]uint64, len(p.Blocks))
	for _, b := range p.Blocks {
		dist[b.ID] = inf
	}
	dist[p.Entry] = pm.BlockCycles[p.Entry]
	done := make(map[ir.BlockID]bool, len(p.Blocks))
	for {
		u, best := ir.BlockID(-1), uint64(inf)
		for id, d := range dist {
			if !done[id] && d < best {
				u, best = id, d
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		for _, s := range p.Block(u).Succs() {
			info := pm.Edges[EdgeKey{From: u, To: s}]
			// Minimum realizable extra: a perfectly predicting predictor
			// pays no penalty, so only the JMP and deterministic parts
			// (page crossings are paid on every traversal of the edge).
			var extra uint64
			if info.ViaJmp {
				extra += uint64(m.Cost.Cycles[isa.JMP])
			}
			extra += info.Extra + m.pageExtra(info)
			if d := best + extra + pm.BlockCycles[s]; d < dist[s] {
				dist[s] = d
			}
		}
	}
	best, found := uint64(inf), false
	for _, b := range p.Blocks {
		if _, isRet := b.Term.(ir.Ret); !isRet {
			continue
		}
		if d := dist[b.ID]; d < best {
			best, found = d, true
		}
	}
	return best, found
}
