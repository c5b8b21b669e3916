package compile

import (
	"fmt"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// inlineHotCalls replaces calls to small leaf procedures at hot call sites
// with a copy of the callee body. A site qualifies when the call-site
// block's expected traversal count is at least inlineMinWeight and the
// callee fits inlineMaxInstrs; each caller stops after inlineBudget inlined
// IR instructions. Inlining removes the CALL/RET boundary overhead and the
// argument pushes, and — because the callee body now has its own block IDs
// inside the caller — exposes the callee's branches to the caller's layout,
// hint, and hot/cold decisions.
//
// Only leaf callees (no ir.Call in any block) are candidates, which rules
// out recursion; callers are scanned in program order and re-scanned after
// each transform so the site selection is deterministic. Weights are
// redistributed onto the new blocks: the callee's internal edges carry its
// own per-invocation weights scaled by the site weight, and the return
// edges into the continuation block carry each return block's weight.
func inlineHotCalls(prog *cfg.Program, weights map[string]ProcWeights) {
	inlinable := make(map[string]*cfg.Proc)
	for _, p := range prog.Procs {
		if inlinableCallee(p, inlineMaxInstrs) {
			inlinable[p.Name] = p
		}
	}
	if len(inlinable) == 0 {
		return
	}
	for _, p := range prog.Procs {
		w, ok := weights[p.Name]
		if !ok {
			continue
		}
		budget := inlineBudget
		site := 0
		for {
			bw := blockWeights(p, w)
			bid, k, callee := findInlineSite(p, bw, inlinable, weights, budget)
			if callee == nil {
				break
			}
			budget -= procInstrCount(callee)
			inlineSite(p, callee, bid, k, bw[bid], w, weights[callee.Name], site)
			site++
		}
	}
}

// inlinableCallee reports whether p can be substituted for a call: a leaf
// (no calls, hence no recursion), no Halt, never the program entry, every
// return explicit when a result is promised (so the continuation's result
// temp is defined on all paths), and small enough.
func inlinableCallee(p *cfg.Proc, maxInstrs int) bool {
	if p.Name == "main" {
		return false
	}
	size := 0
	for _, b := range p.Blocks {
		size += len(b.Instrs)
		switch t := b.Term.(type) {
		case ir.Halt:
			return false
		case ir.Ret:
			if p.HasRet && t.Val < 0 {
				return false
			}
		}
		for _, in := range b.Instrs {
			if _, isCall := in.(ir.Call); isCall {
				return false
			}
		}
	}
	return size <= maxInstrs
}

func procInstrCount(p *cfg.Proc) int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// findInlineSite returns the first qualifying call site in block-ID then
// instruction order, or a nil callee when none remains. Multi-block callees
// additionally need their own weight entry: without one the redistributed
// weights would report zero flow reaching the continuation, and the
// hot/cold pass would wrongly freeze the rest of the caller.
func findInlineSite(p *cfg.Proc, bw map[ir.BlockID]float64, inlinable map[string]*cfg.Proc, weights map[string]ProcWeights, budget int) (ir.BlockID, int, *cfg.Proc) {
	for _, b := range p.Blocks {
		if bw[b.ID] < inlineMinWeight {
			continue
		}
		for k, in := range b.Instrs {
			call, isCall := in.(ir.Call)
			if !isCall {
				continue
			}
			callee := inlinable[call.Fn]
			if callee == nil || callee == p {
				continue
			}
			if len(callee.Blocks) > 1 && weights[callee.Name] == nil {
				continue
			}
			if procInstrCount(callee) > budget {
				continue
			}
			return b.ID, k, callee
		}
	}
	return 0, 0, nil
}

// inlineSite splices a copy of callee into p at block bid, instruction k
// (an ir.Call). The call block keeps its prefix and ends with stores of the
// argument temps into fresh per-site locals standing in for the parameters;
// a new continuation block receives the suffix and the original terminator;
// the callee's blocks are appended with temps offset past the caller's and
// every frame name aliased with an "@callee#site" suffix (the '@' cannot
// occur in a source identifier, so aliases never collide with caller
// names). Returns become jumps to the continuation, preceded by a move of
// the returned temp into the call's destination.
func inlineSite(p *cfg.Proc, callee *cfg.Proc, bid ir.BlockID, k int, siteW float64, w, calleeW ProcWeights, site int) {
	b := p.Block(bid)
	call := b.Instrs[k].(ir.Call)

	suffix := fmt.Sprintf("@%s#%d", callee.Name, site)
	rename := make(map[string]string)
	for _, n := range callee.Params {
		rename[n] = n + suffix
		p.Locals = append(p.Locals, n+suffix)
	}
	for _, n := range callee.Locals {
		rename[n] = n + suffix
		p.Locals = append(p.Locals, n+suffix)
	}
	for n, size := range callee.Arrays {
		rename[n] = n + suffix
		if p.Arrays == nil {
			p.Arrays = make(map[string]int)
		}
		p.Arrays[n+suffix] = size
	}
	tempBase := ir.Temp(p.NumTemp)
	p.NumTemp += callee.NumTemp

	contID := ir.BlockID(len(p.Blocks))
	base := contID + 1
	hasPos := len(b.SrcPos) > 0
	callPos := b.InstrPos(k)

	// Continuation: the call block's suffix under the original terminator.
	cont := &cfg.Block{
		ID:     contID,
		Label:  b.Label + suffix + "_ret",
		Instrs: append([]ir.Instr(nil), b.Instrs[k+1:]...),
		Term:   b.Term,
	}
	if hasPos {
		cont.SrcPos = append([]ir.Pos(nil), b.SrcPos[k+1:]...)
	}
	p.Blocks = append(p.Blocks, cont)

	// The caller's out-edges of bid now leave the continuation.
	for _, s := range b.Succs() {
		key := [2]ir.BlockID{bid, s}
		if wt, ok := w[key]; ok {
			w[[2]ir.BlockID{contID, s}] += wt
			delete(w, key)
		}
	}

	// Truncate the call block and bind arguments.
	b.Instrs = b.Instrs[:k]
	if hasPos {
		b.SrcPos = b.SrcPos[:k]
	}
	for i, a := range call.Args {
		b.Instrs = append(b.Instrs, ir.StoreVar{Name: rename[callee.Params[i]], Src: a})
		if hasPos {
			b.SrcPos = append(b.SrcPos, callPos)
		}
	}
	entry := base + callee.Entry
	b.Term = ir.Jmp{Target: entry}
	w[[2]ir.BlockID{bid, entry}] = siteW

	// Copy the callee body; return blocks' weights decide the flow carried
	// back into the continuation.
	cbw := blockWeights(callee, calleeW)
	for _, cb := range callee.Blocks {
		nb := &cfg.Block{
			ID:     base + cb.ID,
			Label:  cb.Label + suffix,
			Instrs: make([]ir.Instr, 0, len(cb.Instrs)+1),
		}
		for _, in := range cb.Instrs {
			nb.Instrs = append(nb.Instrs, remapInstr(in, rename, tempBase))
		}
		if len(cb.SrcPos) > 0 {
			nb.SrcPos = append([]ir.Pos(nil), cb.SrcPos...)
		}
		switch t := cb.Term.(type) {
		case ir.Jmp:
			nb.Term = ir.Jmp{Target: base + t.Target}
		case ir.Br:
			nb.Term = ir.Br{Cond: t.Cond + tempBase, True: base + t.True, False: base + t.False}
		case ir.Ret:
			if call.Dst >= 0 && t.Val >= 0 {
				nb.Instrs = append(nb.Instrs, ir.Mov{Dst: call.Dst, Src: t.Val + tempBase})
				if len(nb.SrcPos) > 0 {
					nb.SrcPos = append(nb.SrcPos, callPos)
				}
			}
			nb.Term = ir.Jmp{Target: contID}
			w[[2]ir.BlockID{base + cb.ID, contID}] += cbw[cb.ID] * siteW
		default:
			// inlinableCallee rejected Halt; nothing else exists.
			panic("compile: inline: unexpected terminator")
		}
		p.Blocks = append(p.Blocks, nb)
	}
	for _, e := range callee.Edges() {
		w[[2]ir.BlockID{base + e.From, base + e.To}] = calleeW[[2]ir.BlockID{e.From, e.To}] * siteW
	}
}

// remapInstr rewrites one callee instruction for splicing into the caller:
// temps shift by tempBase, frame names go through the alias table (globals
// are absent from it and pass through untouched).
func remapInstr(in ir.Instr, rename map[string]string, tempBase ir.Temp) ir.Instr {
	rn := func(n string) string {
		if nn, ok := rename[n]; ok {
			return nn
		}
		return n
	}
	rt := func(t ir.Temp) ir.Temp {
		if t < 0 {
			return t
		}
		return t + tempBase
	}
	switch v := in.(type) {
	case ir.Const:
		v.Dst = rt(v.Dst)
		return v
	case ir.Mov:
		v.Dst, v.Src = rt(v.Dst), rt(v.Src)
		return v
	case ir.Bin:
		v.Dst, v.A, v.B = rt(v.Dst), rt(v.A), rt(v.B)
		return v
	case ir.Un:
		v.Dst, v.A = rt(v.Dst), rt(v.A)
		return v
	case ir.LoadVar:
		v.Dst, v.Name = rt(v.Dst), rn(v.Name)
		return v
	case ir.StoreVar:
		v.Src, v.Name = rt(v.Src), rn(v.Name)
		return v
	case ir.LoadIndex:
		v.Dst, v.Idx, v.Array = rt(v.Dst), rt(v.Idx), rn(v.Array)
		return v
	case ir.StoreIndex:
		v.Idx, v.Src, v.Array = rt(v.Idx), rt(v.Src), rn(v.Array)
		return v
	case ir.Builtin:
		v.Dst = rt(v.Dst)
		args := make([]ir.Temp, len(v.Args))
		for i, a := range v.Args {
			args[i] = rt(a)
		}
		v.Args = args
		return v
	case ir.Call:
		// inlinableCallee rejected callees with calls.
		panic("compile: inline: call in leaf callee")
	}
	panic(fmt.Sprintf("compile: inline: unhandled instruction %T", in))
}
