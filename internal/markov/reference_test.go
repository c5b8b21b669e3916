package markov

import (
	"cmp"
	"math"
	"slices"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// refPath is a path in the original enumerator's form: the full block
// sequence, the traversed edges in first-traversal order, and a per-path
// map of edge counts; Arcs is the same path in Path's dense form.
type refPath struct {
	Blocks     []ir.BlockID
	Edges      [][2]ir.BlockID
	EdgeCounts map[[2]ir.BlockID]int
	Arcs       Path
}

// enumerateReference is the original map-based enumerator, kept as the
// oracle Enumerate is pinned to: same depth-first search and caps, but
// every leaf copies the block sequence and rebuilds its arcs through a
// fresh map, and every visit allocates the successor list. Each arc's
// dense edge comes from ix.Index.
func enumerateReference(p *cfg.Proc, ix *EdgeIndex, opts EnumerateOptions) (paths []*refPath, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	visits := make([]int, len(p.Blocks))
	var seq []ir.BlockID

	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if len(paths) >= opts.MaxPaths {
			truncated = true
			return
		}
		if visits[int(id)] >= opts.MaxVisits {
			truncated = true
			return
		}
		visits[int(id)]++
		seq = append(seq, id)

		succs := p.Block(id).Succs()
		if len(succs) == 0 {
			path := &refPath{
				Blocks:     append([]ir.BlockID(nil), seq...),
				EdgeCounts: make(map[[2]ir.BlockID]int),
			}
			for i := 0; i+1 < len(path.Blocks); i++ {
				e := [2]ir.BlockID{path.Blocks[i], path.Blocks[i+1]}
				if path.EdgeCounts[e] == 0 {
					path.Edges = append(path.Edges, e)
				}
				path.EdgeCounts[e]++
			}
			for _, e := range path.Edges {
				i, _ := ix.Index(e)
				path.Arcs = append(path.Arcs, Arc{Edge: i, Count: int32(path.EdgeCounts[e])})
			}
			paths = append(paths, path)
		} else {
			for _, s := range succs {
				walk(s)
			}
		}

		seq = seq[:len(seq)-1]
		visits[int(id)]--
	}
	walk(p.Entry)
	return paths, truncated
}

// pathTimeReference is the original duration sum over a reference path:
// the entry overhead, every block of the sequence, then every edge's cost
// times its count.
func pathTimeReference(path *refPath, costs *Costs) float64 {
	t := costs.EntryOverhead
	for _, b := range path.Blocks {
		t += costs.Block[int(b)]
	}
	for _, e := range path.Edges {
		t += float64(path.EdgeCounts[e]) * costs.Edge[e]
	}
	return t
}

// denseProbs keys probs by dense edge, each edge identified through
// ix.Index: the lookup table of pathProbReference.
func denseProbs(ix *EdgeIndex, probs EdgeProbs) map[int32]float64 {
	q := make(map[int32]float64, len(probs))
	for e, v := range probs {
		if i, ok := ix.Index(e); ok {
			q[i] = v
		}
	}
	return q
}

// pathProbReference is the map-based product PathProbs is pinned to: the
// path's probability under q (denseProbs), one log per arc in arc order,
// and 0 as soon as an arc's edge has no positive probability.
func pathProbReference(path Path, q map[int32]float64) float64 {
	logp := 0.0
	for _, a := range path {
		p := q[a.Edge]
		if p <= 0 {
			return 0
		}
		logp += float64(a.Count) * math.Log(p)
	}
	return math.Exp(logp)
}

// sortedTimesReference is the original comparator sort, kept as the oracle
// NewSortedTimes is pinned to: cmp.Compare on the times, ties by path index.
func sortedTimesReference(times []float64) *SortedTimes {
	st := &SortedTimes{Times: make([]float64, len(times)), Idx: make([]int32, len(times))}
	for i := range st.Idx {
		st.Idx[i] = int32(i)
	}
	slices.SortFunc(st.Idx, func(i, j int32) int {
		return cmp.Or(cmp.Compare(times[i], times[j]), cmp.Compare(i, j))
	})
	for i, j := range st.Idx {
		st.Times[i] = times[j]
	}
	return st
}
