package cfg

import (
	"strings"
	"testing"

	"codetomo/internal/ir"
)

// diamond builds:
//
//	b0 -> b1, b2 (branch); b1 -> b3; b2 -> b3; b3 -> ret
func diamond() *Proc {
	return &Proc{
		Name:    "diamond",
		Entry:   0,
		NumTemp: 1,
		Blocks: []*Block{
			{ID: 0, Label: "entry", Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Label: "then", Term: ir.Jmp{Target: 3}},
			{ID: 2, Label: "else", Term: ir.Jmp{Target: 3}},
			{ID: 3, Label: "join", Term: ir.Ret{Val: -1}},
		},
	}
}

// loop builds:
//
//	b0 -> b1; b1 -> b2, b3 (branch); b2 -> b1 (back edge); b3 -> ret
func loopProc() *Proc {
	return &Proc{
		Name:    "loop",
		Entry:   0,
		NumTemp: 1,
		Blocks: []*Block{
			{ID: 0, Label: "entry", Term: ir.Jmp{Target: 1}},
			{ID: 1, Label: "head", Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Label: "body", Term: ir.Jmp{Target: 1}},
			{ID: 3, Label: "exit", Term: ir.Ret{Val: -1}},
		},
	}
}

func TestValidate(t *testing.T) {
	p := diamond()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Blocks[1].Term = ir.Jmp{Target: 9}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range successor accepted")
	}
	p = diamond()
	p.Blocks[2].Term = nil
	if err := p.Validate(); err == nil {
		t.Fatal("missing terminator accepted")
	}
	p = diamond()
	p.Blocks[0].ID = 5
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched block ID accepted")
	}
}

func TestValidateTempConsistency(t *testing.T) {
	p := diamond()
	p.NumTemp = 0 // branch in b0 reads t0
	if err := p.Validate(); err == nil {
		t.Fatal("temp use beyond NumTemp accepted")
	}
	p = diamond()
	p.NumTemp = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative NumTemp accepted")
	}
	p = diamond()
	p.Blocks[1].Instrs = []ir.Instr{ir.Bin{Dst: 7, Op: ir.OpAdd, A: 0, B: 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("temp def beyond NumTemp accepted")
	}
}

func TestValidateSrcPosParallel(t *testing.T) {
	p := diamond()
	p.NumTemp = 2
	p.Blocks[1].Instrs = []ir.Instr{ir.Const{Dst: 1, Val: 3}}
	p.Blocks[1].SrcPos = []ir.Pos{{Line: 1, Col: 1}, {Line: 2, Col: 1}}
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched SrcPos length accepted")
	}
	p.Blocks[1].SrcPos = p.Blocks[1].SrcPos[:1]
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramValidateNamesOffender(t *testing.T) {
	bad := diamond()
	bad.Blocks[2].Term = nil
	prog := &Program{Procs: []*Proc{loopProc(), bad}}
	err := prog.Validate()
	if err == nil {
		t.Fatal("invalid program accepted")
	}
	if !strings.Contains(err.Error(), "proc 1 (diamond)") {
		t.Fatalf("error does not identify the offending proc: %v", err)
	}
}

func TestEdgesAndBranchBlocks(t *testing.T) {
	p := diamond()
	edges := p.Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(edges))
	}
	bb := p.BranchBlocks()
	if len(bb) != 1 || bb[0] != 0 {
		t.Fatalf("branch blocks = %v, want [0]", bb)
	}
}

func TestPredsReachable(t *testing.T) {
	p := diamond()
	preds := p.Preds()
	if len(preds[3]) != 2 {
		t.Fatalf("preds of join = %v", preds[3])
	}
	// Add an unreachable block.
	p.Blocks = append(p.Blocks, &Block{ID: 4, Label: "dead", Term: ir.Ret{Val: -1}})
	r := p.Reachable()
	if r[4] {
		t.Fatal("unreachable block marked reachable")
	}
	if len(r) != 4 {
		t.Fatalf("reachable = %d blocks, want 4", len(r))
	}
}

func TestReversePostorder(t *testing.T) {
	p := diamond()
	rpo := p.ReversePostorder()
	if rpo[0] != 0 {
		t.Fatalf("rpo starts with %v, want entry", rpo[0])
	}
	pos := make(map[ir.BlockID]int)
	for i, id := range rpo {
		pos[id] = i
	}
	// Entry precedes both branches, branches precede join.
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Fatalf("rpo order violated: %v", rpo)
	}
}

func TestDominators(t *testing.T) {
	p := diamond()
	idom := p.Dominators()
	if idom[0] != 0 {
		t.Fatal("entry must dominate itself")
	}
	if idom[1] != 0 || idom[2] != 0 {
		t.Fatalf("idom of branches = %v/%v, want 0", idom[1], idom[2])
	}
	if idom[3] != 0 {
		t.Fatalf("idom of join = %v, want 0 (not either branch)", idom[3])
	}
	if !Dominates(idom, 0, 3) {
		t.Fatal("entry must dominate join")
	}
	if Dominates(idom, 1, 3) {
		t.Fatal("then must not dominate join")
	}
}

func TestNaturalLoops(t *testing.T) {
	p := loopProc()
	loops := p.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 {
		t.Fatalf("header = %v, want 1", l.Header)
	}
	if !l.Body[1] || !l.Body[2] || l.Body[0] || l.Body[3] {
		t.Fatalf("body = %v", l.Body)
	}
	if len(l.BackEdges) != 1 || l.BackEdges[0].From != 2 {
		t.Fatalf("back edges = %v", l.BackEdges)
	}
	set := p.LoopBackEdgeSet()
	if !set[[2]ir.BlockID{2, 1}] {
		t.Fatal("back edge missing from set")
	}
}

func TestNoLoopsInDiamond(t *testing.T) {
	if loops := diamond().NaturalLoops(); len(loops) != 0 {
		t.Fatalf("diamond reported loops: %v", loops)
	}
}

func TestDOT(t *testing.T) {
	p := diamond()
	dot := p.DOT(map[[2]int]string{{0, 1}: "p=0.8"})
	for _, want := range []string{"digraph", "n0 -> n1", `label="p=0.8"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestProgramLookup(t *testing.T) {
	prog := &Program{Procs: []*Proc{diamond(), loopProc()}}
	if prog.Proc("loop") == nil || prog.Proc("nope") != nil {
		t.Fatal("Proc lookup broken")
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}
