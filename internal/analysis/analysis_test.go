package analysis

import (
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// diamondProc builds:
//
//	b0: t0=c; t1=c; br t0 ? b1 : b2
//	b1: x = t1          -> b3
//	b2: (empty)         -> b3
//	b3: ret t1
func diamondProc() *cfg.Proc {
	return &cfg.Proc{
		Name:    "diamond",
		Entry:   0,
		NumTemp: 2,
		HasRet:  true,
		Locals:  []string{"x"},
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}, ir.Const{Dst: 1, Val: 2}},
				Term:   ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Label: "then",
				Instrs: []ir.Instr{ir.StoreVar{Name: "x", Src: 1}},
				Term:   ir.Jmp{Target: 3}},
			{ID: 2, Label: "else", Term: ir.Jmp{Target: 3}},
			{ID: 3, Label: "join", Term: ir.Ret{Val: 1}},
		},
	}
}

// loopedProc builds:
//
//	b0: t0=c; t1=c        -> b1
//	b1: br t0 ? b2 : b3
//	b2: t2 = t1+t1        -> b1 (back edge)
//	b3: ret
func loopedProc() *cfg.Proc {
	return &cfg.Proc{
		Name:    "looped",
		Entry:   0,
		NumTemp: 3,
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}, ir.Const{Dst: 1, Val: 2}},
				Term:   ir.Jmp{Target: 1}},
			{ID: 1, Label: "head", Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Label: "body",
				Instrs: []ir.Instr{ir.Bin{Dst: 2, Op: ir.OpAdd, A: 1, B: 1}},
				Term:   ir.Jmp{Target: 1}},
			{ID: 3, Label: "exit", Term: ir.Ret{Val: -1}},
		},
	}
}

// varProc builds a procedure over locals x and y from its blocks.
func varProc(blocks ...*cfg.Block) *cfg.Proc {
	return &cfg.Proc{Name: "vars", Entry: 0, NumTemp: 1, Locals: []string{"x", "y"}, Blocks: blocks}
}

func TestVarLivenessDiamond(t *testing.T) {
	// b0: x = c; br ? b1 : b2
	// b1: read x          -> b3
	// b2: x = c (kill)    -> b3
	// b3: read y; ret
	p := varProc(
		&cfg.Block{ID: 0, Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}, ir.StoreVar{Name: "x", Src: 0}}, Term: ir.Br{Cond: 0, True: 1, False: 2}},
		&cfg.Block{ID: 1, Instrs: []ir.Instr{ir.LoadVar{Dst: 0, Name: "x"}}, Term: ir.Jmp{Target: 3}},
		&cfg.Block{ID: 2, Instrs: []ir.Instr{ir.StoreVar{Name: "x", Src: 0}}, Term: ir.Jmp{Target: 3}},
		&cfg.Block{ID: 3, Instrs: []ir.Instr{ir.LoadVar{Dst: 0, Name: "y"}}, Term: ir.Ret{Val: -1}},
	)
	vs := NewVarSpace(p)
	x, y := vs.Index("x"), vs.Index("y")
	live := VarLiveness(p, vs)
	// May-meet: x is read on one arm, so it is live out of the branch.
	if !live.LiveOut[0].Get(x) || !live.LiveIn[1].Get(x) {
		t.Error("x not live from the store in b0 to the read in b1")
	}
	// The else arm redefines x before any read; the join never reads it.
	if live.LiveIn[2].Get(x) || live.LiveIn[3].Get(x) {
		t.Error("x live-in at b2 or b3")
	}
	// y is read at the join and never written: live everywhere above it.
	for b := 0; b < 4; b++ {
		if !live.LiveIn[b].Get(y) {
			t.Errorf("y not live-in at b%d", b)
		}
	}
	// Nothing is live out of the exit.
	if live.LiveOut[3].Get(x) || live.LiveOut[3].Get(y) {
		t.Error("a variable is live out of the exit")
	}
}

func TestVarLivenessLoop(t *testing.T) {
	// b0: x = c              -> b1
	// b1: br ? b2 : b3
	// b2: read x; y = t0     -> b1 (back edge)
	// b3: ret
	p := varProc(
		&cfg.Block{ID: 0, Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}, ir.StoreVar{Name: "x", Src: 0}}, Term: ir.Jmp{Target: 1}},
		&cfg.Block{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 3}},
		&cfg.Block{ID: 2, Instrs: []ir.Instr{ir.LoadVar{Dst: 0, Name: "x"}, ir.StoreVar{Name: "y", Src: 0}}, Term: ir.Jmp{Target: 1}},
		&cfg.Block{ID: 3, Term: ir.Ret{Val: -1}},
	)
	vs := NewVarSpace(p)
	live := VarLiveness(p, vs)
	// x is read on every iteration: live around the back edge.
	if x := vs.Index("x"); !live.LiveIn[1].Get(x) || !live.LiveOut[2].Get(x) {
		t.Error("x not live through the loop")
	}
	// y is never read.
	if y := vs.Index("y"); live.LiveIn[1].Get(y) || live.LiveOut[2].Get(y) {
		t.Error("dead y reported live")
	}
}

func TestVarLivenessIgnoresUnreachable(t *testing.T) {
	// An unreachable block reading x must not make x live anywhere.
	p := varProc(
		&cfg.Block{ID: 0, Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}, ir.StoreVar{Name: "x", Src: 0}}, Term: ir.Jmp{Target: 1}},
		&cfg.Block{ID: 1, Term: ir.Ret{Val: -1}},
		&cfg.Block{ID: 2, Instrs: []ir.Instr{ir.LoadVar{Dst: 0, Name: "x"}}, Term: ir.Jmp{Target: 1}},
	)
	vs := NewVarSpace(p)
	live := VarLiveness(p, vs)
	if x := vs.Index("x"); live.LiveOut[0].Get(x) || live.LiveIn[1].Get(x) {
		t.Error("unreachable read made x live in reachable code")
	}
}

func TestDeadStores(t *testing.T) {
	p := &cfg.Proc{
		Name:    "ds",
		Entry:   0,
		NumTemp: 2,
		Locals:  []string{"x"},
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{
					ir.Const{Dst: 0, Val: 1},
					ir.StoreVar{Name: "x", Src: 0}, // dead: overwritten below
					ir.Const{Dst: 1, Val: 2},
					ir.StoreVar{Name: "x", Src: 1}, // live: read in b1
				},
				Term: ir.Jmp{Target: 1}},
			{ID: 1, Label: "use",
				Instrs: []ir.Instr{
					ir.LoadVar{Dst: 0, Name: "x"},
					ir.StoreVar{Name: "x", Src: 0}, // dead: never read again
				},
				Term: ir.Ret{Val: -1}},
		},
	}
	ds := DeadStores(p)
	if len(ds) != 2 {
		t.Fatalf("dead stores = %+v, want 2", ds)
	}
	if ds[0].Block != 0 || ds[0].Index != 1 || ds[1].Block != 1 || ds[1].Index != 1 {
		t.Fatalf("dead store sites = %+v", ds)
	}
}

func TestDeadStoresSkipGlobalsAndUnreachable(t *testing.T) {
	p := diamondProc()
	// A store to a name that is not a local (a global): never reported.
	p.Blocks[2].Instrs = []ir.Instr{ir.StoreVar{Name: "g", Src: 1}}
	// A dead store in an unreachable block: never reported.
	p.Blocks = append(p.Blocks, &cfg.Block{
		ID: 4, Label: "dead",
		Instrs: []ir.Instr{ir.StoreVar{Name: "x", Src: 0}},
		Term:   ir.Ret{Val: 0},
	})
	for _, d := range DeadStores(p) {
		if d.Name == "g" || d.Block == 4 {
			t.Fatalf("unexpected dead store %+v", d)
		}
	}
}

func TestMaybeUninitVars(t *testing.T) {
	// x assigned only on the then-arm, read at the join: maybe-uninit.
	// Parameters are assigned by the caller and must not be flagged.
	p := &cfg.Proc{
		Name:    "uninit",
		Entry:   0,
		NumTemp: 2,
		Params:  []string{"a"},
		Locals:  []string{"x"},
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{ir.LoadVar{Dst: 0, Name: "a"}},
				Term:   ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Label: "then",
				Instrs: []ir.Instr{ir.StoreVar{Name: "x", Src: 0}},
				Term:   ir.Jmp{Target: 2}},
			{ID: 2, Label: "join",
				Instrs: []ir.Instr{ir.LoadVar{Dst: 1, Name: "x"}},
				Term:   ir.Ret{Val: -1}},
		},
	}
	uses := MaybeUninitVars(p)
	if len(uses) != 1 || uses[0].Name != "x" || uses[0].Block != 2 {
		t.Fatalf("uninit uses = %+v, want one use of x in b2", uses)
	}
}

func TestUninitTempUses(t *testing.T) {
	p := diamondProc()
	if uses := UninitTempUses(p); len(uses) != 0 {
		t.Fatalf("clean proc reported uninit temps: %+v", uses)
	}
	// Drop t0's definition: the branch condition is now undefined.
	p.Blocks[0].Instrs = p.Blocks[0].Instrs[1:]
	uses := UninitTempUses(p)
	if len(uses) != 1 || uses[0].Temp != 0 {
		t.Fatalf("uninit uses = %+v, want one use of t0", uses)
	}
}

func TestMaxAcyclicCycles(t *testing.T) {
	p := diamondProc()
	costs := map[ir.BlockID]uint64{0: 10, 1: 7, 2: 3, 3: 5}
	cycles, heads := MaxAcyclicCycles(p, costs)
	if len(heads) != 0 {
		t.Errorf("diamond reported loop heads %v", heads)
	}
	if cycles != 22 { // 10 + max(7,3) + 5
		t.Errorf("cycles = %d, want 22", cycles)
	}

	lp := loopedProc()
	lcosts := map[ir.BlockID]uint64{0: 1, 1: 2, 2: 4, 3: 8}
	cycles, heads = MaxAcyclicCycles(lp, lcosts)
	if len(heads) != 1 || heads[0] != 1 {
		t.Errorf("loop heads = %v, want [1]", heads)
	}
	if cycles != 11 { // 1 + 2 + 8, back edge cut; body path 1+2+4=7
		t.Errorf("cycles = %d, want 11", cycles)
	}
}

func TestStackBounds(t *testing.T) {
	// main -> f(2 args) -> g; g is a leaf; r is self-recursive.
	leaf := &cfg.Proc{Name: "g", Entry: 0, NumTemp: 1, Locals: []string{"l"},
		Blocks: []*cfg.Block{{ID: 0, Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}}, Term: ir.Ret{Val: -1}}}}
	mid := &cfg.Proc{Name: "f", Entry: 0, NumTemp: 2, Params: []string{"a", "b"},
		Blocks: []*cfg.Block{{ID: 0,
			Instrs: []ir.Instr{ir.Call{Dst: -1, Fn: "g"}},
			Term:   ir.Ret{Val: -1}}}}
	rec := &cfg.Proc{Name: "r", Entry: 0, NumTemp: 1,
		Blocks: []*cfg.Block{{ID: 0,
			Instrs: []ir.Instr{ir.Call{Dst: -1, Fn: "r"}},
			Term:   ir.Ret{Val: -1}}}}
	mainP := &cfg.Proc{Name: "main", Entry: 0, NumTemp: 3,
		Blocks: []*cfg.Block{{ID: 0,
			Instrs: []ir.Instr{
				ir.Const{Dst: 0, Val: 1},
				ir.Const{Dst: 1, Val: 2},
				ir.Call{Dst: 2, Fn: "f", Args: []ir.Temp{0, 1}},
			},
			Term: ir.Halt{}}}}
	prog := &cfg.Program{Procs: []*cfg.Proc{mainP, mid, leaf, rec}}

	b := StackBounds(prog)
	// g: 2 + (1 local + 1 temp) = 4.
	if got := b["g"]; got.Recursive || got.Words != 4 {
		t.Errorf("g bound = %+v, want 4 words", got)
	}
	// f: 2 + 2 temps + (0 args + g's 4) = 8.
	if got := b["f"]; got.Recursive || got.Words != 8 {
		t.Errorf("f bound = %+v, want 8 words", got)
	}
	// main: 2 + 3 temps + (2 args + f's 8) = 15.
	if got := b["main"]; got.Recursive || got.Words != 15 {
		t.Errorf("main bound = %+v, want 15 words", got)
	}
	if got := b["r"]; !got.Recursive {
		t.Errorf("r bound = %+v, want recursive", got)
	}
}

func TestVerifyHandBuilt(t *testing.T) {
	good := func() *cfg.Program {
		return &cfg.Program{Procs: []*cfg.Proc{diamondProc()}}
	}
	if err := Verify(good()); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}

	// Edge into the entry block.
	prog := good()
	prog.Procs[0].Blocks[3].Term = ir.Jmp{Target: 0}
	if err := Verify(prog); err == nil {
		t.Error("entry predecessor accepted")
	}

	// Call to a procedure that does not exist.
	prog = good()
	prog.Procs[0].Blocks[2].Instrs = []ir.Instr{ir.Call{Dst: -1, Fn: "ghost"}}
	if err := Verify(prog); err == nil {
		t.Error("call to unknown procedure accepted")
	}

	// Builtin arity violation.
	prog = good()
	prog.Procs[0].Blocks[2].Instrs = []ir.Instr{ir.Builtin{Dst: -1, Name: "led"}}
	if err := Verify(prog); err == nil {
		t.Error("builtin arity violation accepted")
	}

	// Void return from a value-returning procedure.
	prog = good()
	prog.Procs[0].Blocks[3].Term = ir.Ret{Val: -1}
	if err := Verify(prog); err == nil {
		t.Error("void return in value-returning proc accepted")
	}

	// Unresolved variable name.
	prog = good()
	prog.Procs[0].Blocks[2].Instrs = []ir.Instr{ir.StoreVar{Name: "nope", Src: 1}}
	if err := Verify(prog); err == nil {
		t.Error("unresolved name accepted")
	}

	// Duplicate procedure names.
	prog = good()
	prog.Procs = append(prog.Procs, diamondProc())
	if err := Verify(prog); err == nil {
		t.Error("duplicate procedure names accepted")
	}
}
