package compile

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// tempReadCounts returns, for each temp of the procedure, how many times it
// is read anywhere (instructions and terminators). The branch-fusion
// peephole uses it to prove a comparison's boolean result is consumed only
// by the branch and need not be materialized.
func tempReadCounts(p *cfg.Proc) []int {
	counts := make([]int, p.NumTemp)
	read := func(t ir.Temp) {
		if t >= 0 && int(t) < len(counts) {
			counts[t]++
		}
	}
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			ir.InstrUses(in, read)
		}
		ir.TermUses(b.Term, read)
	}
	return counts
}

// fusableCompare reports whether the block's terminator branch can be fused
// with a trailing comparison: the last instruction computes the branch
// condition with a comparison operator, and that boolean is read nowhere
// else. It returns the comparison to fuse, or nil.
func fusableCompare(p *cfg.Proc, b *cfg.Block, reads []int) *ir.Bin {
	br, ok := b.Term.(ir.Br)
	if !ok || len(b.Instrs) == 0 {
		return nil
	}
	last, ok := b.Instrs[len(b.Instrs)-1].(ir.Bin)
	if !ok || !last.Op.IsComparison() {
		return nil
	}
	if last.Dst != br.Cond {
		return nil
	}
	if int(last.Dst) >= len(reads) || reads[last.Dst] != 1 {
		return nil
	}
	return &last
}
