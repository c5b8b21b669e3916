package analysis

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// UninitUse is a read of a temp or variable on some path along which it
// was never written.
type UninitUse struct {
	Block ir.BlockID
	Index int // instruction index; len(Instrs) means the terminator
	Name  string
	Temp  ir.Temp // -1 for variable uses
	Pos   ir.Pos
}

// UninitTempUses finds temps read before any definition on some path —
// always a compiler bug (the lowerer defines every temp before use), so
// Verify treats any hit as an error. Detection is by definite assignment:
// a forward must-analysis tracking temps assigned on every path.
func UninitTempUses(p *cfg.Proc) []UninitUse {
	n := p.NumTemp
	prob := &Problem{
		Dir:  Forward,
		May:  false,
		Bits: n,
		Gen:  make([]Bits, len(p.Blocks)),
	}
	for i, b := range p.Blocks {
		gen := NewBits(n)
		for _, in := range b.Instrs {
			if d, ok := ir.InstrDef(in); ok && inRange(d, n) {
				gen.Set(int(d))
			}
		}
		prob.Gen[i] = gen
	}
	res := Solve(p, prob)

	reach := p.Reachable()
	var out []UninitUse
	for _, b := range p.Blocks {
		if !reach[b.ID] {
			continue
		}
		assigned := res.In[b.ID].Clone()
		report := func(t ir.Temp, idx int) {
			if inRange(t, n) && !assigned.Get(int(t)) {
				out = append(out, UninitUse{Block: b.ID, Index: idx, Temp: t, Pos: b.InstrPos(idx)})
				assigned.Set(int(t)) // report each temp once per block
			}
		}
		for i, in := range b.Instrs {
			ir.InstrUses(in, func(t ir.Temp) { report(t, i) })
			if d, ok := ir.InstrDef(in); ok && inRange(d, n) {
				assigned.Set(int(d))
			}
		}
		ir.TermUses(b.Term, func(t ir.Temp) { report(t, len(b.Instrs)) })
	}
	return out
}

// MaybeUninitVars finds local scalars read before being assigned on some
// path. Parameters are assigned by the caller and globals are zeroed by
// the startup stub, so only locals are candidates; a hit means the program
// reads whatever the stack slot happened to hold — legal but almost
// certainly a bug in the source program.
func MaybeUninitVars(p *cfg.Proc) []UninitUse {
	vs := NewVarSpace(p)
	n := len(vs.Names)
	if n == 0 {
		return nil
	}
	boundary := NewBits(n)
	for i := 0; i < vs.NumParams; i++ {
		boundary.Set(i)
	}
	prob := &Problem{
		Dir:      Forward,
		May:      false,
		Bits:     n,
		Gen:      make([]Bits, len(p.Blocks)),
		Boundary: boundary,
	}
	for i, b := range p.Blocks {
		gen := NewBits(n)
		for _, in := range b.Instrs {
			if v, ok := in.(ir.StoreVar); ok {
				if j := vs.Index(v.Name); j >= 0 {
					gen.Set(j)
				}
			}
		}
		prob.Gen[i] = gen
	}
	res := Solve(p, prob)

	reach := p.Reachable()
	var out []UninitUse
	for _, b := range p.Blocks {
		if !reach[b.ID] {
			continue
		}
		assigned := res.In[b.ID].Clone()
		for i, in := range b.Instrs {
			switch v := in.(type) {
			case ir.LoadVar:
				if j := vs.Index(v.Name); j >= 0 && !assigned.Get(j) {
					out = append(out, UninitUse{Block: b.ID, Index: i, Name: v.Name, Temp: -1, Pos: b.InstrPos(i)})
					assigned.Set(j) // report each variable once per block
				}
			case ir.StoreVar:
				if j := vs.Index(v.Name); j >= 0 {
					assigned.Set(j)
				}
			}
		}
	}
	return out
}
