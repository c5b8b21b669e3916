// Package cfg provides the control-flow-graph representation of lowered
// procedures plus the graph algorithms the rest of the system needs:
// reachability, reverse postorder, dominators, natural-loop detection, and
// DOT export for debugging.
package cfg

import (
	"fmt"
	"sort"

	"codetomo/internal/ir"
)

// Block is a basic block: a straight-line instruction sequence ended by a
// single terminator.
type Block struct {
	ID     ir.BlockID
	Label  string // human-readable label for listings and DOT output
	Instrs []ir.Instr
	Term   ir.Terminator
	// SrcPos optionally records, per instruction, the source position of
	// the statement that produced it (parallel to Instrs). Either empty or
	// exactly len(Instrs) long; Validate enforces the invariant. Passes
	// that copy or splice Instrs must keep SrcPos in sync.
	SrcPos []ir.Pos
}

// InstrPos returns the source position of instruction i, or the zero Pos
// when positions were not recorded.
func (b *Block) InstrPos(i int) ir.Pos {
	if i < 0 || i >= len(b.SrcPos) {
		return ir.Pos{}
	}
	return b.SrcPos[i]
}

// Succs returns the successor block IDs of b.
func (b *Block) Succs() []ir.BlockID {
	if b.Term == nil {
		return nil
	}
	return b.Term.Successors()
}

// Proc is a procedure: its blocks (indexed by BlockID), entry block, and
// signature information needed by the backend.
type Proc struct {
	Name    string
	Params  []string
	HasRet  bool
	Blocks  []*Block
	Entry   ir.BlockID
	NumTemp int // number of virtual registers used
	// Locals lists scalar local variable names (excluding params).
	Locals []string
	// Arrays maps local array names to their length. Global arrays are
	// held on the Program.
	Arrays map[string]int
}

// Block returns the block with the given ID.
func (p *Proc) Block(id ir.BlockID) *Block { return p.Blocks[int(id)] }

// Edge is a directed CFG edge.
type Edge struct {
	From, To ir.BlockID
	// Index is the successor position within From's terminator
	// (0 = taken/true or jump target, 1 = false/fall-through of a Br).
	Index int
}

// Edges returns all CFG edges in deterministic order.
func (p *Proc) Edges() []Edge {
	var out []Edge
	for _, b := range p.Blocks {
		for i, s := range b.Succs() {
			out = append(out, Edge{From: b.ID, To: s, Index: i})
		}
	}
	return out
}

// BranchBlocks returns the IDs of blocks with two or more successors, in
// ascending order. These are the blocks whose outgoing probabilities the
// tomography estimator must recover.
func (p *Proc) BranchBlocks() []ir.BlockID {
	var out []ir.BlockID
	for _, b := range p.Blocks {
		if len(b.Succs()) >= 2 {
			out = append(out, b.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Preds returns the predecessor map of the graph.
func (p *Proc) Preds() map[ir.BlockID][]ir.BlockID {
	preds := make(map[ir.BlockID][]ir.BlockID, len(p.Blocks))
	for _, b := range p.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

// Reachable returns the set of blocks reachable from the entry.
func (p *Proc) Reachable() map[ir.BlockID]bool {
	seen := make(map[ir.BlockID]bool)
	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, s := range p.Block(id).Succs() {
			walk(s)
		}
	}
	walk(p.Entry)
	return seen
}

// ReversePostorder returns reachable blocks in reverse postorder from the
// entry — the canonical forward-dataflow iteration order.
func (p *Proc) ReversePostorder() []ir.BlockID {
	seen := make(map[ir.BlockID]bool)
	var post []ir.BlockID
	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, s := range p.Block(id).Succs() {
			walk(s)
		}
		post = append(post, id)
	}
	walk(p.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Validate checks the structural invariants the rest of the pipeline relies
// on: every block has a terminator, successor IDs are in range, block IDs
// match their index, the entry is in range, SrcPos (when present) parallels
// Instrs, and every temp referenced by an instruction or terminator lies in
// [0, NumTemp).
func (p *Proc) Validate() error {
	if int(p.Entry) < 0 || int(p.Entry) >= len(p.Blocks) {
		return fmt.Errorf("cfg: %s: entry %v out of range", p.Name, p.Entry)
	}
	if p.NumTemp < 0 {
		return fmt.Errorf("cfg: %s: negative NumTemp %d", p.Name, p.NumTemp)
	}
	for i, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("cfg: %s: nil block %d", p.Name, i)
		}
		if int(b.ID) != i {
			return fmt.Errorf("cfg: %s: block %d has ID %v", p.Name, i, b.ID)
		}
		if b.Term == nil {
			return fmt.Errorf("cfg: %s: block %v lacks a terminator", p.Name, b.ID)
		}
		if len(b.SrcPos) != 0 && len(b.SrcPos) != len(b.Instrs) {
			return fmt.Errorf("cfg: %s: block %v has %d source positions for %d instructions",
				p.Name, b.ID, len(b.SrcPos), len(b.Instrs))
		}
		for _, s := range b.Succs() {
			if int(s) < 0 || int(s) >= len(p.Blocks) {
				return fmt.Errorf("cfg: %s: block %v has out-of-range successor %v", p.Name, b.ID, s)
			}
		}
		if err := p.validateTemps(b); err != nil {
			return err
		}
	}
	return nil
}

// validateTemps checks that every temp a block references is consistent
// with the procedure's declared NumTemp.
func (p *Proc) validateTemps(b *Block) error {
	check := func(t ir.Temp, what string, idx int) error {
		if int(t) < 0 || int(t) >= p.NumTemp {
			return fmt.Errorf("cfg: %s: block %v instr %d: %s %v outside [0, NumTemp=%d)",
				p.Name, b.ID, idx, what, t, p.NumTemp)
		}
		return nil
	}
	var err error
	for idx, in := range b.Instrs {
		if err != nil {
			break
		}
		if d, ok := ir.InstrDef(in); ok && err == nil {
			err = check(d, "def", idx)
		}
		ir.InstrUses(in, func(t ir.Temp) {
			if err == nil {
				err = check(t, "use", idx)
			}
		})
	}
	if err != nil {
		return err
	}
	ir.TermUses(b.Term, func(t ir.Temp) {
		if err == nil {
			err = check(t, "terminator use", len(b.Instrs))
		}
	})
	return err
}

// GlobalInit records a constant initial value for a scalar global.
type GlobalInit struct {
	Name string
	Val  int
}

// Program is a whole compilation unit.
type Program struct {
	Procs []*Proc
	// Globals lists scalar global names; GlobalArrays maps array globals
	// to their lengths.
	Globals      []string
	GlobalArrays map[string]int
	// GlobalInits lists nonzero constant initializers applied by the
	// startup stub before main runs.
	GlobalInits []GlobalInit
}

// Proc returns the procedure with the given name, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Validate validates all procedures, identifying the offending procedure
// by name and index in the error.
func (p *Program) Validate() error {
	for i, pr := range p.Procs {
		if pr == nil {
			return fmt.Errorf("cfg: program: nil procedure at index %d", i)
		}
		if err := pr.Validate(); err != nil {
			return fmt.Errorf("proc %d (%s): %w", i, pr.Name, err)
		}
	}
	return nil
}
