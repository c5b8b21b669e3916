package lint

import (
	"fmt"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
	"codetomo/internal/minic"
	"codetomo/internal/profile"
)

// staticColdMaxWeight is the candidate threshold for the static cold-split
// report, in expected traversals per invocation under Ball–Larus branch
// priors. It is deliberately looser than the optimizer's measured-profile
// threshold (0.01 in the compiler's hot/cold pass): priors are diffuse,
// so a block they already push well below one traversal per ten calls is
// worth surfacing as a candidate even without profile data.
const staticColdMaxWeight = 0.1

// lintPages emits the opt-in flash-page report (ctlint -pages): for every
// procedure, how many flash pages its code occupies — flagging procedures
// that straddle more pages than their size requires, which page-aware
// placement could fix — and which blocks static branch priors mark as
// cold-split candidates for the hot/cold splitting pass.
func (l *linter) lintPages(f *minic.File, out *compile.Output) {
	cost := out.Meta.Cost
	ps := cost.PageSizeBytes
	if ps == 0 {
		return
	}
	off := cost.ByteOffsets(out.Code)

	for _, p := range out.CFG.Procs {
		pm := out.Meta.ProcByName[p.Name]
		if pm == nil {
			continue
		}
		pos := funcPos(f, p.Name)

		startB, endB := off[pm.EntryAddr], off[pm.EndAddr]
		bytes := endB - startB
		firstPage, lastPage := startB/ps, (endB-1)/ps
		spanned := lastPage - firstPage + 1
		minimum := (bytes + ps - 1) / ps
		var span string
		if firstPage == lastPage {
			span = fmt.Sprintf("on flash page %d", firstPage)
		} else {
			span = fmt.Sprintf("across flash pages %d-%d", firstPage, lastPage)
		}
		msg := fmt.Sprintf("%q: %d code bytes %s (%d-byte pages)", p.Name, bytes, span, ps)
		if spanned > minimum {
			msg += fmt.Sprintf("; straddles %d more page(s) than its size needs", spanned-minimum)
		}
		l.add(pos, SevInfo, "page-info", msg)

		// Cold-split candidates seeded from Ball–Larus static priors
		// instead of estimated probabilities.
		w := layout.FromProbs(p, profile.BallLarusProbs(p))
		if cold := compile.ColdBlocks(p, w, staticColdMaxWeight); len(cold) > 0 {
			l.add(pos, SevInfo, "cold-split",
				fmt.Sprintf("%q: %s cold under static branch priors (<= %g expected traversals per call); hot/cold splitting would keep %s off the hot path's pages",
					p.Name, blockList(p, cold), staticColdMaxWeight, itThem(len(cold))))
		}
	}
}

// blockList names blocks for a diagnostic, preferring labels over bare IDs.
func blockList(p *cfg.Proc, blocks []ir.BlockID) string {
	s := "block "
	if len(blocks) > 1 {
		s = "blocks "
	}
	for i, b := range blocks {
		if i > 0 {
			s += ", "
		}
		if lbl := p.Block(b).Label; lbl != "" {
			s += lbl
		} else {
			s += fmt.Sprintf("b%d", b)
		}
	}
	return s
}

func itThem(n int) string {
	if n == 1 {
		return "it"
	}
	return "them"
}
