package analysis

// Unit tests for the static-analysis layer: interval arithmetic, range
// inference with branch resolution, and WCET composition over hand-built
// CFGs. Source-level behavior (trip counts over real loop shapes, soundness
// against execution) is exercised in internal/compile's static tests.

import (
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

func TestIntervalArithmetic(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b Interval
		want Interval
	}{
		{ir.OpAdd, Single(3), Single(4), Single(7)},
		{ir.OpAdd, Interval{0, 10}, Interval{-5, 5}, Interval{-5, 15}},
		{ir.OpAdd, Single(MaxWord), Single(1), Top()}, // wrap: any value
		{ir.OpSub, Interval{0, 10}, Interval{2, 3}, Interval{-3, 8}},
		{ir.OpMul, Interval{-3, 3}, Single(10), Interval{-30, 30}},
		{ir.OpMul, Single(1000), Single(1000), Top()}, // wraps int16
		{ir.OpDiv, Interval{0, 100}, Single(8), Interval{0, 12}},
		{ir.OpMod, Interval{0, 1000}, Single(8), Interval{0, 7}},
		{ir.OpMod, Interval{-50, 50}, Single(8), Interval{-7, 7}},
		{ir.OpShr, Interval{0, 1023}, Single(2), Interval{0, 255}},
		{ir.OpLt, Interval{0, 5}, Interval{10, 20}, Single(1)},
		{ir.OpLt, Interval{10, 20}, Interval{0, 5}, Single(0)},
		{ir.OpLt, Interval{0, 15}, Interval{10, 20}, Interval{0, 1}},
		{ir.OpEq, Single(7), Single(7), Single(1)},
		{ir.OpEq, Single(7), Single(8), Single(0)},
		{ir.OpEq, Interval{0, 5}, Interval{6, 9}, Single(0)},
	}
	for _, tc := range cases {
		if got := binInterval(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%v(%v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	if got := unInterval(ir.OpNeg, Interval{-3, 5}); got != (Interval{-5, 3}) {
		t.Errorf("neg = %v", got)
	}
}

// rangeProc builds:
//
//	b0: x = 5            -> b1
//	b1: if (x < 10)      -> b2 (then) | b3 (else, infeasible)
//	b2: t = x + 1        -> b4
//	b3: t = 99           -> b4 (dead)
//	b4: ret
func rangeProc() *cfg.Proc {
	return &cfg.Proc{
		Name:    "resolve",
		Entry:   0,
		NumTemp: 6,
		Locals:  []string{"x"},
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{
					ir.Const{Dst: 0, Val: 5},
					ir.StoreVar{Name: "x", Src: 0},
				},
				Term: ir.Jmp{Target: 1}},
			{ID: 1, Label: "test",
				Instrs: []ir.Instr{
					ir.LoadVar{Dst: 1, Name: "x"},
					ir.Const{Dst: 2, Val: 10},
					ir.Bin{Dst: 3, Op: ir.OpLt, A: 1, B: 2},
				},
				Term: ir.Br{Cond: 3, True: 2, False: 3}},
			{ID: 2, Label: "then",
				Instrs: []ir.Instr{
					ir.LoadVar{Dst: 4, Name: "x"},
					ir.Const{Dst: 5, Val: 1},
					ir.Bin{Dst: 4, Op: ir.OpAdd, A: 4, B: 5},
				},
				Term: ir.Jmp{Target: 4}},
			{ID: 3, Label: "else",
				Instrs: []ir.Instr{ir.Const{Dst: 4, Val: 99}},
				Term:   ir.Jmp{Target: 4}},
			{ID: 4, Label: "exit", Term: ir.Ret{Val: -1}},
		},
	}
}

func TestInferRangesResolvesBranch(t *testing.T) {
	p := rangeProc()
	r := InferRanges(p)

	res := r.ResolvedBranches()
	if live, ok := res[1]; !ok || live != 2 {
		t.Fatalf("resolved branches = %v, want {1: 2}", res)
	}
	dead := r.DeadBlocks()
	if len(dead) != 1 || dead[0] != 3 {
		t.Fatalf("dead blocks = %v, want [3]", dead)
	}
	if iv := varIntervalAt(r, 1, "x"); iv != Single(5) {
		t.Errorf("x at b1 = %v, want [5,5]", iv)
	}
}

func TestInferRangesJoin(t *testing.T) {
	// Make the branch genuinely two-way: x is 5 or 50 depending on an
	// unknown condition, so x<10 cannot resolve and both arms stay live.
	p := rangeProc()
	p.NumTemp = 7
	p.Blocks[0].Instrs = []ir.Instr{
		ir.Builtin{Dst: 6, Name: "rand"},
		ir.Const{Dst: 0, Val: 5},
		ir.StoreVar{Name: "x", Src: 0},
	}
	p.Blocks[0].Term = ir.Br{Cond: 6, True: 1, False: 5}
	p.Blocks = append(p.Blocks, &cfg.Block{
		ID: 5, Label: "alt",
		Instrs: []ir.Instr{
			ir.Const{Dst: 0, Val: 50},
			ir.StoreVar{Name: "x", Src: 0},
		},
		Term: ir.Jmp{Target: 1},
	})
	r := InferRanges(p)
	if res := r.ResolvedBranches(); len(res) != 0 {
		t.Fatalf("resolved = %v, want none", res)
	}
	if dead := r.DeadBlocks(); len(dead) != 0 {
		t.Fatalf("dead = %v, want none", dead)
	}
	if iv := varIntervalAt(r, 1, "x"); iv != (Interval{5, 50}) {
		t.Errorf("x at b1 = %v, want [5,50]", iv)
	}
	// Refinement: inside the then-arm x < 10, so x joins to [5,9].
	if iv := varIntervalAt(r, 2, "x"); iv != (Interval{5, 9}) {
		t.Errorf("x at then = %v, want [5,9]", iv)
	}
	// Inside the else-arm x >= 10: only the 50 path remains.
	if iv := varIntervalAt(r, 3, "x"); iv != (Interval{10, 50}) {
		t.Errorf("x at else = %v, want [10,50]", iv)
	}
}

// wcetProc builds a single-loop procedure:
//
//	b0 (cost 2) -> b1 header (cost 3) -> b2 body (cost 5) -back-> b1
//	                              \-> b3 exit (cost 7)
func wcetProc() *cfg.Proc {
	return &cfg.Proc{
		Name:    "loop",
		Entry:   0,
		NumTemp: 1,
		Blocks: []*cfg.Block{
			{ID: 0, Label: "entry",
				Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}},
				Term:   ir.Jmp{Target: 1}},
			{ID: 1, Label: "head", Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Label: "body", Term: ir.Jmp{Target: 1}},
			{ID: 3, Label: "exit", Term: ir.Ret{Val: -1}},
		},
	}
}

func TestProcWCET(t *testing.T) {
	p := wcetProc()
	costs := map[ir.BlockID]uint64{0: 2, 1: 3, 2: 5, 3: 7}
	extras := map[[2]ir.BlockID]uint64{{2, 1}: 1}

	// Bounded loop: C(L) = 4*(3+5+1) + (3+5) = 44; total 2 + 44 + 7 = 53.
	trips := map[ir.BlockID]TripBound{
		1: {Header: 1, MaxBackEdges: 4, Bounded: true, HasExit: true},
	}
	w := ProcWCET(p, costs, extras, trips)
	if !w.Bounded || w.Cycles != 53 {
		t.Fatalf("WCET = %+v, want bounded 53", w)
	}

	// Unbounded loop: fall back to the acyclic envelope and name the
	// header.
	w = ProcWCET(p, costs, extras, nil)
	if w.Bounded {
		t.Fatal("unbounded loop reported bounded")
	}
	if len(w.UnboundedLoops) != 1 || w.UnboundedLoops[0] != 1 {
		t.Fatalf("unbounded loops = %v, want [1]", w.UnboundedLoops)
	}
	// Envelope: longest path with the back edge cut — 2+3+7 = 12 through
	// the exit (the body path 2+3+5 = 10 is shorter; MaxAcyclicCycles does
	// not charge edge extras).
	if w.Cycles != 12 {
		t.Fatalf("envelope = %d, want 12", w.Cycles)
	}

	// Zero-trip loop body never runs... but the envelope still includes
	// one traversal: a bound of 0 back edges means at most one partial
	// pass: 2 + (0*9 + 8) + 7 = 17.
	trips[1] = TripBound{Header: 1, MaxBackEdges: 0, Bounded: true, HasExit: true}
	w = ProcWCET(p, costs, extras, trips)
	if !w.Bounded || w.Cycles != 17 {
		t.Fatalf("zero-trip WCET = %+v, want bounded 17", w)
	}
}

func TestLoopNest(t *testing.T) {
	// Two-level nest:
	//
	//	b0 -> b1 (outer head) -> b2 (inner head) -> b3 (inner body) -> b2
	//	      b2 -> b4 (outer latch) -> b1; b1 -> b5 exit
	p := &cfg.Proc{
		Name:    "nest",
		Entry:   0,
		NumTemp: 1,
		Blocks: []*cfg.Block{
			{ID: 0, Instrs: []ir.Instr{ir.Const{Dst: 0, Val: 1}}, Term: ir.Jmp{Target: 1}},
			{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 5}},
			{ID: 2, Term: ir.Br{Cond: 0, True: 3, False: 4}},
			{ID: 3, Term: ir.Jmp{Target: 2}},
			{ID: 4, Term: ir.Jmp{Target: 1}},
			{ID: 5, Term: ir.Ret{Val: -1}},
		},
	}
	nest := p.BuildLoopNest()
	if len(nest.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(nest.Loops))
	}
	// NaturalLoops sorts by header: index 0 = outer (header 1), 1 = inner.
	if nest.Loops[0].Header != 1 || nest.Loops[1].Header != 2 {
		t.Fatalf("headers = %v, %v", nest.Loops[0].Header, nest.Loops[1].Header)
	}
	if nest.Parent[0] != -1 || nest.Parent[1] != 0 {
		t.Fatalf("parents = %v", nest.Parent)
	}
	if nest.Depth[0] != 1 || nest.Depth[1] != 2 {
		t.Fatalf("depths = %v", nest.Depth)
	}
	if nest.Innermost(3) != 1 || nest.Innermost(4) != 0 || nest.Innermost(0) != -1 {
		t.Fatalf("innermost wrong: b3=%d b4=%d b0=%d",
			nest.Innermost(3), nest.Innermost(4), nest.Innermost(0))
	}
	if order := nest.InnermostFirst(); order[0] != 1 || order[1] != 0 {
		t.Fatalf("contraction order = %v, want inner first", order)
	}
	// Within the outer loop, the inner loop's blocks map to child index 1.
	if nest.ChildIn(0, 3) != 1 || nest.ChildIn(0, 2) != 1 || nest.ChildIn(0, 4) != -1 {
		t.Fatalf("ChildIn wrong: b3=%d b2=%d b4=%d",
			nest.ChildIn(0, 3), nest.ChildIn(0, 2), nest.ChildIn(0, 4))
	}
}

// varIntervalAt returns the interval of a scalar variable at block entry:
// Top for an untracked name (a global, an array) or an unreached block.
func varIntervalAt(r *Ranges, b ir.BlockID, name string) Interval {
	if i := r.vs.Index(name); i >= 0 && int(b) < len(r.in) && r.in[b] != nil {
		return r.in[b].vars[i]
	}
	return Top()
}
