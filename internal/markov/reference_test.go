package markov

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// refPath is a path in the original enumerator's form: the full block
// sequence, the arcs in first-traversal order, and a per-path map of edge
// counts.
type refPath struct {
	Blocks     []ir.BlockID
	Arcs       []Arc
	EdgeCounts map[[2]ir.BlockID]int
}

// enumerateReference is the original map-based enumerator, kept as the
// oracle Enumerate is pinned to: same depth-first search and caps, but
// every leaf copies the block sequence and rebuilds its arcs through a
// fresh map, and every visit allocates the successor list.
func enumerateReference(p *cfg.Proc, opts EnumerateOptions) (paths []*refPath, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 4096
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
					path.Arcs = append(path.Arcs, Arc{Edge: e})
				}
				path.EdgeCounts[e]++
			}
			for i := range path.Arcs {
				path.Arcs[i].Count = path.EdgeCounts[path.Arcs[i].Edge]
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
// the entry overhead, every block of the sequence, then every arc's edge
// cost times its count.
func pathTimeReference(path *refPath, costs *Costs) float64 {
	t := costs.EntryOverhead
	for _, b := range path.Blocks {
		t += costs.Block[int(b)]
	}
	for _, a := range path.Arcs {
		t += float64(a.Count) * costs.Edge[a.Edge]
	}
	return t
}
