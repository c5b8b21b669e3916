// Package compile is the MiniC compiler backend: it lowers checked ASTs to
// CFG form (package cfg/ir), runs light cleanup passes, and generates M16
// machine code under a chosen basic-block layout, optionally inserting
// profiling instrumentation (procedure-boundary timestamps for Code
// Tomography, or per-arc counters for the full-profiling baseline).
//
// The backend also emits the static timing metadata (per-block cycle costs
// and per-edge penalty descriptors) that the tomography estimator's Markov
// model is built from. Both the metadata and the simulator derive their
// numbers from the same isa.CostModel, which is the property that makes
// end-to-end durations invertible.
package compile

import (
	"fmt"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/minic"
)

// lowerer lowers one function to a cfg.Proc.
type lowerer struct {
	file   *minic.File
	proc   *cfg.Proc
	cur    *cfg.Block
	nTemp  int
	breaks []ir.BlockID // innermost-last break targets
	conts  []ir.BlockID // innermost-last continue targets
	// pos is the source position of the statement currently being lowered;
	// emit stamps it onto each instruction (cfg.Block.SrcPos) so CFG-level
	// analyses can report file:line diagnostics.
	pos ir.Pos
}

// Lower converts a checked MiniC file into CFG form. It assumes
// minic.Check has passed; violations found here indicate compiler bugs and
// are returned as errors.
func Lower(f *minic.File) (*cfg.Program, error) {
	prog := &cfg.Program{GlobalArrays: make(map[string]int)}
	for _, g := range f.Globals {
		if g.ArrayLen > 0 {
			prog.GlobalArrays[g.Name] = g.ArrayLen
			continue
		}
		prog.Globals = append(prog.Globals, g.Name)
		if g.Init != nil {
			v, err := minic.EvalConst(g.Init)
			if err != nil {
				return nil, err
			}
			if v != 0 {
				prog.GlobalInits = append(prog.GlobalInits, cfg.GlobalInit{Name: g.Name, Val: v})
			}
		}
	}
	for _, fn := range f.Funcs {
		p, err := lowerFunc(f, fn)
		if err != nil {
			return nil, err
		}
		prog.Procs = append(prog.Procs, p)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compile: lowering produced invalid CFG: %w", err)
	}
	return prog, nil
}

func lowerFunc(file *minic.File, fn *minic.FuncDecl) (*cfg.Proc, error) {
	l := &lowerer{
		file: file,
		proc: &cfg.Proc{
			Name:   fn.Name,
			Params: append([]string(nil), fn.Params...),
			HasRet: fn.HasRet,
			Arrays: make(map[string]int),
		},
	}
	entry := l.newBlock("entry")
	l.proc.Entry = entry.ID
	l.cur = entry

	if err := l.block(fn.Body); err != nil {
		return nil, err
	}
	// Implicit void return at the end (checker guarantees value-returning
	// functions never reach here on a live path).
	if l.cur.Term == nil {
		l.cur.Term = ir.Ret{Val: -1}
	}
	l.proc.NumTemp = l.nTemp
	removeUnreachable(l.proc)
	threadJumps(l.proc)
	return l.proc, nil
}

func (l *lowerer) newBlock(label string) *cfg.Block {
	b := &cfg.Block{ID: ir.BlockID(len(l.proc.Blocks)), Label: label}
	l.proc.Blocks = append(l.proc.Blocks, b)
	return b
}

func (l *lowerer) newTemp() ir.Temp {
	t := ir.Temp(l.nTemp)
	l.nTemp++
	return t
}

// emit appends an instruction to the current block. Emitting after the
// block is terminated targets an unreachable continuation block, which the
// cleanup pass removes.
func (l *lowerer) emit(in ir.Instr) {
	if l.cur.Term != nil {
		l.cur = l.newBlock("dead")
	}
	l.cur.Instrs = append(l.cur.Instrs, in)
	l.cur.SrcPos = append(l.cur.SrcPos, l.pos)
}

// seal terminates the current block and switches to next.
func (l *lowerer) seal(t ir.Terminator, next *cfg.Block) {
	if l.cur.Term == nil {
		l.cur.Term = t
	}
	l.cur = next
}

func (l *lowerer) block(b *minic.BlockStmt) error {
	for _, s := range b.Stmts {
		if err := l.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *lowerer) stmt(s minic.Stmt) error {
	if p := s.StmtPos(); p.Line > 0 {
		l.pos = ir.Pos{Line: p.Line, Col: p.Col}
	}
	switch st := s.(type) {
	case *minic.BlockStmt:
		return l.block(st)

	case *minic.DeclStmt:
		d := st.Decl
		if d.ArrayLen > 0 {
			l.proc.Arrays[d.Name] = d.ArrayLen
			return nil
		}
		l.proc.Locals = append(l.proc.Locals, d.Name)
		if d.Init != nil {
			t, err := l.expr(d.Init)
			if err != nil {
				return err
			}
			l.emit(ir.StoreVar{Name: d.Name, Src: t})
		}
		return nil

	case *minic.AssignStmt:
		v, err := l.expr(st.Value)
		if err != nil {
			return err
		}
		if st.Index == nil {
			l.emit(ir.StoreVar{Name: st.Name, Src: v})
			return nil
		}
		idx, err := l.expr(st.Index)
		if err != nil {
			return err
		}
		l.emit(ir.StoreIndex{Array: st.Name, Idx: idx, Src: v})
		return nil

	case *minic.IfStmt:
		return l.ifStmt(st)

	case *minic.WhileStmt:
		return l.loopStmt(st.Cond, nil, st.Body)

	case *minic.ForStmt:
		if st.Init != nil {
			if err := l.stmt(st.Init); err != nil {
				return err
			}
		}
		return l.loopStmt(st.Cond, st.Post, st.Body)

	case *minic.ReturnStmt:
		val := ir.Temp(-1)
		if st.Value != nil {
			t, err := l.expr(st.Value)
			if err != nil {
				return err
			}
			val = t
		}
		l.seal(ir.Ret{Val: val}, l.newBlock("afterret"))
		return nil

	case *minic.BreakStmt:
		if len(l.breaks) == 0 {
			return fmt.Errorf("compile: break outside loop escaped the checker")
		}
		l.seal(ir.Jmp{Target: l.breaks[len(l.breaks)-1]}, l.newBlock("afterbreak"))
		return nil

	case *minic.ContinueStmt:
		if len(l.conts) == 0 {
			return fmt.Errorf("compile: continue outside loop escaped the checker")
		}
		l.seal(ir.Jmp{Target: l.conts[len(l.conts)-1]}, l.newBlock("aftercontinue"))
		return nil

	case *minic.ExprStmt:
		call, ok := st.X.(*minic.CallExpr)
		if !ok {
			return fmt.Errorf("compile: non-call expression statement escaped the checker")
		}
		_, err := l.call(call, false)
		return err
	}
	return fmt.Errorf("compile: unknown statement %T", s)
}

func (l *lowerer) ifStmt(st *minic.IfStmt) error {
	// Constant condition folds to a straight jump.
	if v, err := minic.EvalConst(st.Cond); err == nil {
		if v != 0 {
			return l.block(st.Then)
		}
		if st.Else != nil {
			return l.block(st.Else)
		}
		return nil
	}
	cond, err := l.expr(st.Cond)
	if err != nil {
		return err
	}
	thenB := l.newBlock("then")
	var elseB *cfg.Block
	join := l.newBlock("join")
	if st.Else != nil {
		elseB = l.newBlock("else")
		l.seal(ir.Br{Cond: cond, True: thenB.ID, False: elseB.ID}, thenB)
	} else {
		l.seal(ir.Br{Cond: cond, True: thenB.ID, False: join.ID}, thenB)
	}
	if err := l.block(st.Then); err != nil {
		return err
	}
	l.seal(ir.Jmp{Target: join.ID}, join)
	if elseB != nil {
		l.cur = elseB
		if err := l.block(st.Else); err != nil {
			return err
		}
		l.seal(ir.Jmp{Target: join.ID}, join)
	}
	l.cur = join
	return nil
}

// loopStmt lowers while (post == nil) and for loops.
func (l *lowerer) loopStmt(cond minic.Expr, post *minic.AssignStmt, body *minic.BlockStmt) error {
	header := l.newBlock("loophead")
	bodyB := l.newBlock("loopbody")
	exit := l.newBlock("loopexit")
	contTarget := header
	if post != nil {
		contTarget = l.newBlock("looppost")
	}

	l.seal(ir.Jmp{Target: header.ID}, header)

	// Header: evaluate the condition.
	constCond := -1
	if cond == nil {
		constCond = 1
	} else if v, err := minic.EvalConst(cond); err == nil {
		if v != 0 {
			constCond = 1
		} else {
			constCond = 0
		}
	}
	switch constCond {
	case 1:
		l.seal(ir.Jmp{Target: bodyB.ID}, bodyB)
	case 0:
		l.seal(ir.Jmp{Target: exit.ID}, bodyB)
	default:
		c, err := l.expr(cond)
		if err != nil {
			return err
		}
		l.seal(ir.Br{Cond: c, True: bodyB.ID, False: exit.ID}, bodyB)
	}

	l.cur = bodyB
	l.breaks = append(l.breaks, exit.ID)
	l.conts = append(l.conts, contTarget.ID)
	err := l.block(body)
	l.breaks = l.breaks[:len(l.breaks)-1]
	l.conts = l.conts[:len(l.conts)-1]
	if err != nil {
		return err
	}
	l.seal(ir.Jmp{Target: contTarget.ID}, exit)

	if post != nil {
		l.cur = contTarget
		if err := l.stmt(post); err != nil {
			return err
		}
		l.seal(ir.Jmp{Target: header.ID}, exit)
	}
	l.cur = exit
	return nil
}

// expr lowers an expression, returning the temp holding its value.
func (l *lowerer) expr(e minic.Expr) (ir.Temp, error) {
	// Fold whole constant subtrees first.
	if v, err := minic.EvalConst(e); err == nil {
		t := l.newTemp()
		l.emit(ir.Const{Dst: t, Val: int(int16(uint16(v)))})
		return t, nil
	}
	switch ex := e.(type) {
	case *minic.NumLit:
		t := l.newTemp()
		l.emit(ir.Const{Dst: t, Val: ex.Val})
		return t, nil

	case *minic.VarRef:
		t := l.newTemp()
		l.emit(ir.LoadVar{Dst: t, Name: ex.Name})
		return t, nil

	case *minic.IndexExpr:
		idx, err := l.expr(ex.Index)
		if err != nil {
			return 0, err
		}
		t := l.newTemp()
		l.emit(ir.LoadIndex{Dst: t, Array: ex.Name, Idx: idx})
		return t, nil

	case *minic.UnExpr:
		x, err := l.expr(ex.X)
		if err != nil {
			return 0, err
		}
		t := l.newTemp()
		switch ex.Op {
		case minic.Minus:
			l.emit(ir.Un{Dst: t, Op: ir.OpNeg, A: x})
		case minic.Not:
			l.emit(ir.Un{Dst: t, Op: ir.OpNot, A: x})
		case minic.Tilde:
			// ~x lowered as x ^ 0xFFFF.
			m := l.newTemp()
			l.emit(ir.Const{Dst: m, Val: -1})
			l.emit(ir.Bin{Dst: t, Op: ir.OpXor, A: x, B: m})
		default:
			return 0, fmt.Errorf("compile: unknown unary op %v", ex.Op)
		}
		return t, nil

	case *minic.BinExpr:
		if ex.Op == minic.AndAnd || ex.Op == minic.OrOr {
			return l.shortCircuit(ex)
		}
		a, err := l.expr(ex.L)
		if err != nil {
			return 0, err
		}
		b, err := l.expr(ex.R)
		if err != nil {
			return 0, err
		}
		op, ok := binOpFor(ex.Op)
		if !ok {
			return 0, fmt.Errorf("compile: unknown binary op %v", ex.Op)
		}
		t := l.newTemp()
		l.emit(ir.Bin{Dst: t, Op: op, A: a, B: b})
		return t, nil

	case *minic.CallExpr:
		return l.call(ex, true)
	}
	return 0, fmt.Errorf("compile: unknown expression %T", e)
}

func binOpFor(k minic.Kind) (ir.Op, bool) {
	m := map[minic.Kind]ir.Op{
		minic.Plus: ir.OpAdd, minic.Minus: ir.OpSub, minic.Star: ir.OpMul,
		minic.Slash: ir.OpDiv, minic.Percent: ir.OpMod,
		minic.Amp: ir.OpAnd, minic.Pipe: ir.OpOr, minic.Caret: ir.OpXor,
		minic.Shl: ir.OpShl, minic.Shr: ir.OpShr,
		minic.Lt: ir.OpLt, minic.Le: ir.OpLe, minic.Gt: ir.OpGt,
		minic.Ge: ir.OpGe, minic.EqEq: ir.OpEq, minic.NotEq: ir.OpNe,
	}
	op, ok := m[k]
	return op, ok
}

// shortCircuit lowers && and || with proper control flow, producing 0/1.
// Temps are addressable frame slots in this backend, so assigning the
// result temp from two predecessor blocks is well-defined without phis.
func (l *lowerer) shortCircuit(ex *minic.BinExpr) (ir.Temp, error) {
	res := l.newTemp()
	a, err := l.expr(ex.L)
	if err != nil {
		return 0, err
	}
	evalR := l.newBlock("sc_rhs")
	short := l.newBlock("sc_short")
	join := l.newBlock("sc_join")

	if ex.Op == minic.AndAnd {
		// a false → result 0; else result = (b != 0).
		l.seal(ir.Br{Cond: a, True: evalR.ID, False: short.ID}, evalR)
	} else {
		// a true → result 1; else result = (b != 0).
		l.seal(ir.Br{Cond: a, True: short.ID, False: evalR.ID}, evalR)
	}

	l.cur = evalR
	b, err := l.expr(ex.R)
	if err != nil {
		return 0, err
	}
	zero := l.newTemp()
	l.emit(ir.Const{Dst: zero, Val: 0})
	l.emit(ir.Bin{Dst: res, Op: ir.OpNe, A: b, B: zero})
	l.seal(ir.Jmp{Target: join.ID}, short)

	l.cur = short
	shortVal := 0
	if ex.Op == minic.OrOr {
		shortVal = 1
	}
	l.emit(ir.Const{Dst: res, Val: shortVal})
	l.seal(ir.Jmp{Target: join.ID}, join)

	l.cur = join
	return res, nil
}

func (l *lowerer) call(ex *minic.CallExpr, needValue bool) (ir.Temp, error) {
	args := make([]ir.Temp, 0, len(ex.Args))
	for _, a := range ex.Args {
		t, err := l.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, t)
	}
	dst := ir.Temp(-1)
	if needValue {
		dst = l.newTemp()
	}
	if _, isBuiltin := minic.Builtins[ex.Name]; isBuiltin {
		l.emit(ir.Builtin{Dst: dst, Name: ex.Name, Args: args})
	} else {
		l.emit(ir.Call{Dst: dst, Fn: ex.Name, Args: args})
	}
	return dst, nil
}
