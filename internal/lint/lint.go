// Package lint turns the front end's diagnostics, the AST-level checks,
// and the dataflow analyses of internal/analysis into positioned,
// machine-readable findings over MiniC source files. It is the engine
// behind cmd/ctlint.
//
// Diagnostics come from four layers, cheapest first:
//
//  1. parse/check errors (fatal: later layers are skipped),
//  2. front-end warnings (unused locals and parameters),
//  3. AST lints (unreachable statements, constant branch conditions) —
//     these must run before lowering, which folds constant conditions
//     and deletes unreachable blocks,
//  4. CFG lints on the freshly lowered IR — dataflow (dead stores,
//     maybe-uninitialized reads) and value-range (dead-branch,
//     unreachable-block, loop-unbounded) — and static cost bounds on the
//     fully compiled program (stack depth, recursion, flash size, and
//     provable WCET cycles where the loop trip bounds allow one).
package lint

import (
	"errors"
	"fmt"
	"sort"

	"codetomo/internal/analysis"
	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/minic"
)

// Severity grades a finding.
const (
	SevError   = "error"
	SevWarning = "warning"
	SevInfo    = "info"
)

// Diag is one positioned finding. The JSON form is the ctlint -json
// contract.
type Diag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Msg      string `json:"msg"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", d.File, d.Line, d.Col, d.Severity, d.Msg, d.Code)
}

// Options configures the cost-bound lints. Stack and code size are always
// checked against the M16 part limits from internal/isa.
type Options struct {
	// MaxCycles, when nonzero, warns on procedures whose provable
	// worst-case execution exceeds it. Applies to loop-free procedures and
	// to procedures whose every loop carries a provable trip bound; loops
	// that defeat the bound proof are reported separately
	// (loop-unbounded), since their static figure is only per-traversal.
	MaxCycles uint64
	// CostReport additionally emits an informational cost summary per
	// procedure (ctlint -costs).
	CostReport bool
	// PageReport additionally emits an informational flash-page report per
	// procedure (ctlint -pages): pages occupied, avoidable page straddles,
	// and cold-split candidate blocks under static branch priors.
	PageReport bool
}

type linter struct {
	file  string
	diags []Diag
}

func (l *linter) add(pos minic.Pos, sev, code, msg string) {
	l.diags = append(l.diags, Diag{
		File: l.file, Line: pos.Line, Col: pos.Col,
		Severity: sev, Code: code, Msg: msg,
	})
}

// Run lints one MiniC source file and returns all findings sorted by
// position. It never returns an error: failures to parse, check, or
// compile are themselves diagnostics (severity "error").
func Run(filename, src string, opts Options) []Diag {
	l := &linter{file: filename}

	f, err := minic.Parse(src)
	if err != nil {
		l.addErr(err, "parse-error")
		return l.finish()
	}
	warnings, err := minic.CheckWithDiagnostics(f)
	for _, w := range warnings {
		l.add(w.Pos, SevWarning, w.Code, w.Msg)
	}
	if err != nil {
		l.addErr(err, "check-error")
		return l.finish()
	}

	for _, fn := range f.Funcs {
		l.lintBlock(fn.Body)
	}

	l.lintCFG(f)
	l.lintCosts(f, src, opts)
	return l.finish()
}

// addErr records a fatal front-end error, recovering the position when
// the error is a positioned *minic.Error.
func (l *linter) addErr(err error, code string) {
	var me *minic.Error
	if errors.As(err, &me) {
		l.add(me.Pos, SevError, code, me.Msg)
		return
	}
	l.add(minic.Pos{Line: 1, Col: 1}, SevError, code, err.Error())
}

func (l *linter) finish() []Diag {
	sort.Slice(l.diags, func(i, j int) bool {
		a, b := l.diags[i], l.diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return l.diags
}

// ---- AST lints -----------------------------------------------------------

// lintBlock flags the first statement in the block that control cannot
// reach, then recurses into compound statements.
func (l *linter) lintBlock(b *minic.BlockStmt) {
	reached := true
	for _, s := range b.Stmts {
		if !reached {
			l.add(s.StmtPos(), SevWarning, "unreachable", "statement is unreachable")
			reached = true // report once per dead region, keep linting it
		}
		l.lintStmt(s)
		if transfersAway(s) {
			reached = false
		}
	}
}

func (l *linter) lintStmt(s minic.Stmt) {
	switch st := s.(type) {
	case *minic.BlockStmt:
		l.lintBlock(st)
	case *minic.IfStmt:
		if v, ok := constCond(st.Cond); ok {
			l.add(st.Cond.ExprPos(), SevWarning, "constant-cond",
				fmt.Sprintf("branch condition is always %s", trueFalse(v)))
			if !v {
				l.markDead(st.Then)
			} else if st.Else != nil {
				l.markDead(st.Else)
			}
		}
		l.lintBlock(st.Then)
		if st.Else != nil {
			l.lintBlock(st.Else)
		}
	case *minic.WhileStmt:
		// A constant-true loop condition (e.g. while(1)) is the idiomatic
		// event loop; only a constant-false one is suspicious.
		if v, ok := constCond(st.Cond); ok && !v {
			l.add(st.Cond.ExprPos(), SevWarning, "constant-cond", "loop condition is always false")
			l.markDead(st.Body)
		}
		l.lintBlock(st.Body)
	case *minic.ForStmt:
		if st.Cond != nil {
			if v, ok := constCond(st.Cond); ok && !v {
				l.add(st.Cond.ExprPos(), SevWarning, "constant-cond", "loop condition is always false")
				l.markDead(st.Body)
			}
		}
		l.lintBlock(st.Body)
	}
}

// markDead flags a block whose enclosing condition makes it unreachable.
func (l *linter) markDead(b *minic.BlockStmt) {
	if len(b.Stmts) > 0 {
		l.add(b.Stmts[0].StmtPos(), SevWarning, "unreachable", "statement is unreachable")
	}
}

// constCond reports whether the condition folds to a compile-time
// constant, and its truth value.
func constCond(e minic.Expr) (truth, ok bool) {
	v, err := minic.EvalConst(e)
	if err != nil {
		return false, false
	}
	return v != 0, true
}

func trueFalse(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// transfersAway reports whether control never continues past the
// statement (mirrors the checker's alwaysReturns, extended to break and
// continue, which also end straight-line execution within a block).
func transfersAway(s minic.Stmt) bool {
	switch st := s.(type) {
	case *minic.ReturnStmt, *minic.BreakStmt, *minic.ContinueStmt:
		return true
	case *minic.BlockStmt:
		for _, inner := range st.Stmts {
			if transfersAway(inner) {
				return true
			}
		}
	case *minic.IfStmt:
		return st.Else != nil && blockTransfers(st.Then) && blockTransfers(st.Else)
	}
	return false
}

func blockTransfers(b *minic.BlockStmt) bool {
	for _, s := range b.Stmts {
		if transfersAway(s) {
			return true
		}
	}
	return false
}

// ---- CFG dataflow lints --------------------------------------------------

// lintCFG lowers the checked file and runs the dataflow lints that need a
// fresh CFG: dead stores, maybe-uninitialized reads, and the value-range
// lints (statically dead branches, value-unreachable blocks, loops without
// a provable trip bound). It must see the un-optimized lowering, whose
// SrcPos side tables still point at the statements the programmer wrote.
func (l *linter) lintCFG(f *minic.File) {
	prog, err := compile.Lower(f)
	if err != nil {
		l.addErr(err, "lower-error")
		return
	}
	for _, p := range prog.Procs {
		for _, ds := range analysis.DeadStores(p) {
			l.add(minic.Pos(ds.Pos), SevWarning, "dead-store",
				fmt.Sprintf("value stored to %q is never read", ds.Name))
		}
		for _, u := range analysis.MaybeUninitVars(p) {
			l.add(minic.Pos(u.Pos), SevWarning, "maybe-uninit",
				fmt.Sprintf("%q may be read before it is assigned", u.Name))
		}
		l.lintRanges(f, p)
	}
}

// lintRanges runs the interval analysis over one procedure and reports
// branches it proves one-way, blocks it proves can never run, and loops
// that exit but carry no provable iteration bound.
func (l *linter) lintRanges(f *minic.File, p *cfg.Proc) {
	r := analysis.InferRanges(p)

	resolved := r.ResolvedBranches()
	branches := make([]ir.BlockID, 0, len(resolved))
	for b := range resolved {
		branches = append(branches, b)
	}
	sort.Slice(branches, func(i, j int) bool { return branches[i] < branches[j] })
	for _, b := range branches {
		// The condition is computed at the end of the branch block; its
		// last recorded position is the if/while the programmer wrote.
		blk := p.Block(b)
		pos := blockPos(f, p, blk)
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			if ip := blk.InstrPos(i); ip.Line != 0 {
				pos = minic.Pos(ip)
				break
			}
		}
		l.add(pos, SevWarning, "dead-branch",
			fmt.Sprintf("condition in %q always takes the same arm: the value analysis proves the other side dead", p.Name))
	}

	for _, b := range r.DeadBlocks() {
		l.add(blockPos(f, p, p.Block(b)), SevWarning, "unreachable-block",
			fmt.Sprintf("code in %q can never execute: no feasible values reach it", p.Name))
	}

	trips := analysis.LoopTripBounds(p, r)
	headers := make([]ir.BlockID, 0, len(trips))
	for h := range trips {
		headers = append(headers, h)
	}
	sort.Slice(headers, func(i, j int) bool { return headers[i] < headers[j] })
	for _, h := range headers {
		tb := trips[h]
		// Deliberate event loops (while(1)) have no exit at all; only loops
		// that CAN terminate but defeat the bound proof are worth flagging.
		if tb.HasExit && !tb.Bounded {
			l.add(blockPos(f, p, p.Block(h)), SevInfo, "loop-unbounded",
				fmt.Sprintf("loop in %q has no provable iteration bound; worst-case cycle cost is open-ended", p.Name))
		}
	}
}

// blockPos finds a source position for a block-level finding: the first
// recorded instruction position in the block, else in its successors (a
// loop header may be a bare scaffolding block), else the enclosing
// function's position.
func blockPos(f *minic.File, p *cfg.Proc, b *cfg.Block) minic.Pos {
	for i := range b.Instrs {
		if pos := b.InstrPos(i); pos.Line != 0 {
			return minic.Pos(pos)
		}
	}
	for _, s := range b.Succs() {
		sb := p.Block(s)
		for i := range sb.Instrs {
			if pos := sb.InstrPos(i); pos.Line != 0 {
				return minic.Pos(pos)
			}
		}
	}
	return funcPos(f, p.Name)
}

// ---- Static cost bounds --------------------------------------------------

// lintCosts compiles the program (all passes on, IR verified) and checks
// the resulting binary against the part's limits: worst-case stack depth
// vs the RAM left over after globals, recursion (unbounded stack), code
// bytes vs flash, and optionally a per-procedure cycle ceiling.
func (l *linter) lintCosts(f *minic.File, src string, opts Options) {
	out, err := compile.Build(src, compile.Options{
		VerifyIR:     true,
		FuseCompares: true,
		RotateLoops:  true,
	})
	if err != nil {
		l.addErr(err, "build-error")
		return
	}

	if int(out.Meta.CodeBytes) > isa.DefaultFlashBytes {
		l.add(funcPos(f, "main"), SevWarning, "cost-flash",
			fmt.Sprintf("code size %d bytes exceeds the %d-byte flash", out.Meta.CodeBytes, isa.DefaultFlashBytes))
	}

	// The stack budget is whatever RAM the global segment leaves free.
	budget := isa.DefaultRAMWords - (compile.GlobalBase + out.Meta.GlobalWords)

	bounds := analysis.StackBounds(out.CFG)
	for _, p := range out.CFG.Procs {
		pos := funcPos(f, p.Name)
		b := bounds[p.Name]
		if b.Recursive {
			l.add(pos, SevWarning, "cost-recursion",
				fmt.Sprintf("%q is recursive: worst-case stack depth is unbounded", p.Name))
		} else if b.Words > budget {
			l.add(pos, SevWarning, "cost-stack",
				fmt.Sprintf("%q needs up to %d stack words but only %d fit after globals", p.Name, b.Words, budget))
		}

		sb, err := out.ProcStaticBound(p.Name)
		if err != nil {
			l.addErr(err, "build-error")
			continue
		}
		if opts.MaxCycles > 0 && sb.Bounded && sb.Cycles > opts.MaxCycles {
			l.add(pos, SevWarning, "cost-cycles",
				fmt.Sprintf("%q worst-case execution is %d cycles, over the %d-cycle budget", p.Name, sb.Cycles, opts.MaxCycles))
		}
		if opts.CostReport {
			loopNote := ""
			if !sb.Bounded {
				loopNote = fmt.Sprintf(" per loop-free traversal (no provable bound for %s)",
					loopList(p, sb.UnboundedLoops))
			}
			l.add(pos, SevInfo, "cost-info",
				fmt.Sprintf("%q: <= %d cycles%s, stack %s, frame %d words",
					p.Name, sb.Cycles, loopNote, stackNote(b), analysis.FrameWords(p)))
		}
	}

	if opts.PageReport {
		l.lintPages(f, out)
	}
}

// loopList names loop-header blocks for a cost diagnostic, preferring the
// block label over the bare ID.
func loopList(p *cfg.Proc, heads []ir.BlockID) string {
	if len(heads) == 0 {
		return "its loops"
	}
	s := "loop at block "
	if len(heads) > 1 {
		s = "loops at blocks "
	}
	for i, h := range heads {
		if i > 0 {
			s += ", "
		}
		if lbl := p.Block(h).Label; lbl != "" {
			s += lbl
		} else {
			s += fmt.Sprintf("b%d", h)
		}
	}
	return s
}

func stackNote(b analysis.StackBound) string {
	if b.Recursive {
		return "unbounded (recursive)"
	}
	return fmt.Sprintf("<= %d words", b.Words)
}

func funcPos(f *minic.File, name string) minic.Pos {
	if fn := f.Func(name); fn != nil {
		return fn.Pos
	}
	return minic.Pos{Line: 1, Col: 1}
}
