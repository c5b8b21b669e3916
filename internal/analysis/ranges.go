package analysis

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
)

// This file implements an interval (value-range) abstract interpretation
// over the lowered IR. Every MiniC value is a 16-bit word the operators
// treat as signed (except the bitwise ones, which agree on the bit level);
// the domain is therefore intervals over [-32768, 32767], with the full
// range acting as "unknown" (Top). Transfer functions mirror the reference
// interpreter's semantics exactly — wraparound goes to Top rather than
// being modeled — so every concrete execution is contained in the computed
// intervals. That containment is what lets the results drive provable
// trip-count bounds, dead-branch elimination, and static priors for the
// tomography estimator.

// Int16 domain bounds.
const (
	MinWord = -1 << 15
	MaxWord = 1<<15 - 1
)

// Interval is an inclusive signed-16-bit value range. Lo > Hi denotes the
// empty interval (unreachable value set).
type Interval struct {
	Lo, Hi int
}

// Top returns the full-range interval (unknown value).
func Top() Interval { return Interval{MinWord, MaxWord} }

// Single returns the singleton interval {v}.
func Single(v int) Interval { return Interval{v, v} }

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int) bool { return iv.Lo <= v && v <= iv.Hi }

// Const reports whether the interval pins a single value, and that value.
func (iv Interval) Const() (int, bool) {
	if iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// join returns the smallest interval containing both operands.
func join(a, b Interval) Interval {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// meet returns the intersection (possibly empty).
func meet(a, b Interval) Interval {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// clamp16 returns the interval if it fits the 16-bit signed domain, Top
// otherwise — the wraparound escape hatch of every arithmetic transfer.
func clamp16(lo, hi int64) Interval {
	if lo < MinWord || hi > MaxWord {
		return Top()
	}
	return Interval{int(lo), int(hi)}
}

// nextPow2Minus1 returns the smallest 2^k−1 covering v (v >= 0).
func nextPow2Minus1(v int) int {
	m := 1
	for m-1 < v {
		m <<= 1
	}
	return m - 1
}

// binInterval is the transfer function of ir.Bin, mirroring minic.binOp.
func binInterval(op ir.Op, a, b Interval) Interval {
	if a.Empty() || b.Empty() {
		return Interval{1, 0}
	}
	switch op {
	case ir.OpAdd:
		return clamp16(int64(a.Lo)+int64(b.Lo), int64(a.Hi)+int64(b.Hi))
	case ir.OpSub:
		return clamp16(int64(a.Lo)-int64(b.Hi), int64(a.Hi)-int64(b.Lo))
	case ir.OpMul:
		lo, hi := corners(a, b, func(x, y int64) int64 { return x * y })
		return clamp16(lo, hi)
	case ir.OpDiv:
		// Division by zero faults at runtime; a divisor range containing 0
		// yields Top (sound for every non-faulting execution). With the
		// divisor's sign fixed, the truncated quotient is monotone in each
		// operand, so the extremes lie at the corners. A corner outside the
		// 16-bit domain (-32768/-1) wraps, handled by clamp16.
		if b.Contains(0) {
			return Top()
		}
		lo, hi := corners(a, b, func(x, y int64) int64 { return x / y })
		return clamp16(lo, hi)
	case ir.OpMod:
		if b.Contains(0) {
			return Top()
		}
		// 0 ∉ b, so the divisor's sign is fixed; |result| <= |divisor|−1.
		m := b.Hi - 1
		if b.Hi < 0 {
			m = -b.Lo - 1
		}
		// Go's % takes the dividend's sign: a >= 0 keeps the result >= 0.
		lo, hi := -m, m
		if a.Lo >= 0 {
			lo = 0
		}
		if a.Hi <= 0 {
			hi = 0
		}
		return Interval{lo, hi}
	case ir.OpAnd:
		// x & y with one operand known nonnegative is in [0, that operand].
		switch {
		case a.Lo >= 0 && b.Lo >= 0:
			hi := a.Hi
			if b.Hi < hi {
				hi = b.Hi
			}
			return Interval{0, hi}
		case a.Lo >= 0:
			return Interval{0, a.Hi}
		case b.Lo >= 0:
			return Interval{0, b.Hi}
		}
		return Top()
	case ir.OpOr, ir.OpXor:
		if a.Lo >= 0 && b.Lo >= 0 {
			hi := a.Hi
			if b.Hi > hi {
				hi = b.Hi
			}
			return Interval{0, nextPow2Minus1(hi)}
		}
		return Top()
	case ir.OpShl:
		// The machine masks the shift count to 4 bits on the raw word, so
		// only counts provably in [0,15] are modeled; negative left
		// operands shift through the sign bit, so they are not.
		s, isConst := b.Const()
		if !isConst || s < 0 || s > 15 || a.Lo < 0 {
			return Top()
		}
		return clamp16(int64(a.Lo)<<uint(s), int64(a.Hi)<<uint(s))
	case ir.OpShr:
		// Arithmetic shift: monotone in the value and in the count, so the
		// extremes are corners, provided the count is provably in [0,15].
		if b.Lo < 0 || b.Hi > 15 {
			return Top()
		}
		lo, hi := corners(a, b, func(x, y int64) int64 { return x >> uint(y) })
		return clamp16(lo, hi)
	case ir.OpLt:
		return cmpInterval(a.Hi < b.Lo, a.Lo >= b.Hi)
	case ir.OpLe:
		return cmpInterval(a.Hi <= b.Lo, a.Lo > b.Hi)
	case ir.OpGt:
		return cmpInterval(a.Lo > b.Hi, a.Hi <= b.Lo)
	case ir.OpGe:
		return cmpInterval(a.Lo >= b.Hi, a.Hi < b.Lo)
	case ir.OpEq:
		if va, oka := a.Const(); oka {
			if vb, okb := b.Const(); okb && va == vb {
				return Single(1)
			}
		}
		return cmpInterval(false, a.Hi < b.Lo || b.Hi < a.Lo)
	case ir.OpNe:
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return Single(1)
		}
		if va, oka := a.Const(); oka {
			if vb, okb := b.Const(); okb && va == vb {
				return Single(0)
			}
		}
		return Interval{0, 1}
	}
	return Top()
}

// cmpInterval maps (provably true, provably false) to a boolean interval.
func cmpInterval(alwaysTrue, alwaysFalse bool) Interval {
	switch {
	case alwaysTrue:
		return Single(1)
	case alwaysFalse:
		return Single(0)
	}
	return Interval{0, 1}
}

// corners evaluates f at the four interval corners and returns min/max.
func corners(a, b Interval, f func(x, y int64) int64) (lo, hi int64) {
	first := true
	for _, x := range [2]int64{int64(a.Lo), int64(a.Hi)} {
		for _, y := range [2]int64{int64(b.Lo), int64(b.Hi)} {
			v := f(x, y)
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
	}
	return lo, hi
}

// unInterval is the transfer function of ir.Un.
func unInterval(op ir.Op, a Interval) Interval {
	if a.Empty() {
		return Interval{1, 0}
	}
	switch op {
	case ir.OpNeg:
		if a.Lo == MinWord {
			return Top() // -(-32768) wraps
		}
		return Interval{-a.Hi, -a.Lo}
	case ir.OpNot:
		if !a.Contains(0) {
			return Single(0)
		}
		if v, ok := a.Const(); ok && v == 0 {
			return Single(1)
		}
		return Interval{0, 1}
	}
	return Top()
}

// rstate is one program point's abstract store: an interval per temp and
// per tracked scalar (parameters and locals, via VarSpace — globals and
// arrays are Top because calls may write them).
type rstate struct {
	temps []Interval
	vars  []Interval
}

func newTopState(numTemps, numVars int) *rstate {
	s := &rstate{
		temps: make([]Interval, numTemps),
		vars:  make([]Interval, numVars),
	}
	for i := range s.temps {
		s.temps[i] = Top()
	}
	for i := range s.vars {
		s.vars[i] = Top()
	}
	return s
}

func (s *rstate) clone() *rstate {
	return &rstate{
		temps: append([]Interval(nil), s.temps...),
		vars:  append([]Interval(nil), s.vars...),
	}
}

// joinInto widens-joins src into dst, returning whether dst changed. With
// widen set, any bound that would grow jumps straight to the domain limit,
// guaranteeing quick termination on loops the plain join would walk slowly.
func (s *rstate) joinInto(src *rstate, widen bool) bool {
	changed := false
	mergeOne := func(dst *Interval, sv Interval) {
		j := join(*dst, sv)
		if j == *dst {
			return
		}
		if widen {
			if j.Lo < dst.Lo {
				j.Lo = MinWord
			}
			if j.Hi > dst.Hi {
				j.Hi = MaxWord
			}
		}
		*dst = j
		changed = true
	}
	for i := range s.temps {
		mergeOne(&s.temps[i], src.temps[i])
	}
	for i := range s.vars {
		mergeOne(&s.vars[i], src.vars[i])
	}
	return changed
}

// widenVisits is the number of joins a block absorbs before widening kicks
// in; small CFG loops converge well before it, slow arithmetic contractions
// (EMA-style feedback) jump to Top instead of crawling.
const widenVisits = 12

// Ranges holds the fixpoint result of the interval analysis for one
// procedure.
type Ranges struct {
	proc *cfg.Proc
	vs   *VarSpace
	in   []*rstate                 // per block; nil = not reached under ranges
	edge map[[2]ir.BlockID]*rstate // refined out-state per CFG edge
	res  map[ir.BlockID]ir.BlockID // Br blocks with exactly one live arm
	live map[[2]ir.BlockID]bool    // edges the fixpoint propagated along
}

// InferRanges runs the interval analysis to fixpoint. Propagation follows
// only edges not yet proven dead, so a branch resolved by value ranges
// also stops its dead arm's state from flowing — blocks reachable in the
// CFG but only through dead arms end up with no state (see DeadBlocks).
func InferRanges(p *cfg.Proc) *Ranges {
	r := &Ranges{
		proc: p,
		vs:   NewVarSpace(p),
		in:   make([]*rstate, len(p.Blocks)),
		edge: make(map[[2]ir.BlockID]*rstate),
		res:  make(map[ir.BlockID]ir.BlockID),
		live: make(map[[2]ir.BlockID]bool),
	}
	numVars := len(r.vs.Names)
	r.in[p.Entry] = newTopState(p.NumTemp, numVars)

	visits := make([]int, len(p.Blocks))
	inWork := make([]bool, len(p.Blocks))
	work := []ir.BlockID{p.Entry}
	inWork[p.Entry] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		outs := r.transfer(p.Block(b), r.in[b])
		// Duplicate successors (a Br with both arms on one block) join
		// before being recorded or propagated.
		merged := make(map[ir.BlockID]*rstate)
		for _, o := range outs {
			if o.state == nil {
				continue // dead arm
			}
			key := [2]ir.BlockID{b, o.to}
			r.live[key] = true
			if prev := merged[o.to]; prev != nil {
				prev.joinInto(o.state, false)
			} else {
				merged[o.to] = o.state
			}
		}
		for to, st := range merged {
			r.edge[[2]ir.BlockID{b, to}] = st
			if r.in[to] == nil {
				r.in[to] = st.clone()
			} else {
				visits[to]++
				if !r.in[to].joinInto(st, visits[to] > widenVisits) {
					continue
				}
			}
			if !inWork[to] {
				inWork[to] = true
				work = append(work, to)
			}
		}
	}
	return r
}

// edgeState is one successor's propagated state; nil means the arm is
// proven dead.
type edgeState struct {
	to    ir.BlockID
	state *rstate
}

// transfer interprets one block from the given in-state, producing the
// per-successor out-states (with branch-condition refinement) and
// recording branch resolution.
func (r *Ranges) transfer(b *cfg.Block, in *rstate) []edgeState {
	st := in.clone()
	for _, instr := range b.Instrs {
		r.step(st, instr)
	}

	br, isBr := b.Term.(ir.Br)
	if !isBr {
		var out []edgeState
		for _, s := range b.Succs() {
			out = append(out, edgeState{to: s, state: st})
		}
		return out
	}

	cond := st.temps[br.Cond]
	liveTrue := !(cond.Lo == 0 && cond.Hi == 0) // some nonzero value possible
	if cond.Empty() {
		liveTrue = false
	}
	liveFalse := cond.Contains(0)

	trueSt, falseSt := st.clone(), st.clone()
	r.refine(b, br.Cond, trueSt, falseSt)
	if stEmpty(trueSt) {
		liveTrue = false
	}
	if stEmpty(falseSt) {
		liveFalse = false
	}

	delete(r.res, b.ID)
	switch {
	case liveTrue && !liveFalse:
		r.res[b.ID] = br.True
	case liveFalse && !liveTrue:
		r.res[b.ID] = br.False
	}

	out := []edgeState{{to: br.True}, {to: br.False}}
	if liveTrue {
		out[0].state = trueSt
	}
	if liveFalse {
		out[1].state = falseSt
	}
	return out
}

// stEmpty reports whether refinement emptied any tracked location —
// meaning the edge is infeasible.
func stEmpty(s *rstate) bool {
	for _, iv := range s.temps {
		if iv.Empty() {
			return true
		}
	}
	for _, iv := range s.vars {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// step applies one instruction's transfer function in place.
func (r *Ranges) step(st *rstate, instr ir.Instr) {
	setTemp := func(t ir.Temp, iv Interval) {
		if t >= 0 && int(t) < len(st.temps) {
			st.temps[t] = iv
		}
	}
	switch v := instr.(type) {
	case ir.Const:
		setTemp(v.Dst, Single(int(int16(v.Val))))
	case ir.Mov:
		setTemp(v.Dst, st.temps[v.Src])
	case ir.Bin:
		setTemp(v.Dst, binInterval(v.Op, st.temps[v.A], st.temps[v.B]))
	case ir.Un:
		setTemp(v.Dst, unInterval(v.Op, st.temps[v.A]))
	case ir.LoadVar:
		if i := r.vs.Index(v.Name); i >= 0 {
			setTemp(v.Dst, st.vars[i])
		} else {
			setTemp(v.Dst, Top()) // global: any caller/callee may write it
		}
	case ir.StoreVar:
		if i := r.vs.Index(v.Name); i >= 0 {
			st.vars[i] = st.temps[v.Src]
		}
	case ir.LoadIndex:
		setTemp(v.Dst, Top())
	case ir.StoreIndex:
		// arrays are not tracked
	case ir.Call:
		// MiniC has no pointers: a call cannot touch this frame's locals
		// or temps, only globals (which are already Top).
		setTemp(v.Dst, Top())
	case ir.Builtin:
		switch v.Name {
		case "sense":
			setTemp(v.Dst, Interval{0, isa.ADCMaxReading})
		default:
			setTemp(v.Dst, Top())
		}
	}
}

// refine narrows the out-states of a Br's arms using the block-local
// definition chain of the condition: the condition temp itself, a variable
// the condition loaded directly ("if (x)"), and the operands of an
// in-block comparison feeding it ("if (x < k)"). A variable is only
// refined when no later store in the block can have changed it since the
// observing load.
func (r *Ranges) refine(b *cfg.Block, cond ir.Temp, trueSt, falseSt *rstate) {
	applyVar := func(name string, t, f Interval) {
		i := r.vs.Index(name)
		if i < 0 {
			return
		}
		trueSt.vars[i] = meet(trueSt.vars[i], t)
		falseSt.vars[i] = meet(falseSt.vars[i], f)
	}

	// The condition temp: nonzero on the true arm, zero on the false arm.
	cv := trueSt.temps[cond]
	if cv.Lo == 0 && cv.Hi > 0 {
		cv.Lo = 1
	} else if cv.Hi == 0 && cv.Lo < 0 {
		cv.Hi = -1
	}
	trueSt.temps[cond] = cv
	falseSt.temps[cond] = meet(falseSt.temps[cond], Single(0))

	if name := r.resolveVar(b, len(b.Instrs), cond); name != "" {
		t := trueSt.vars[r.vs.Index(name)]
		if t.Lo == 0 && t.Hi > 0 {
			t.Lo = 1
		} else if t.Hi == 0 && t.Lo < 0 {
			t.Hi = -1
		}
		applyVar(name, t, Single(0))
		return
	}

	cmpIdx, cmp := r.findCompare(b, cond)
	if cmpIdx < 0 {
		return
	}
	// Operand intervals at the compare: replay the block prefix.
	pre := r.in[b.ID].clone()
	for _, instr := range b.Instrs[:cmpIdx] {
		r.step(pre, instr)
	}
	aIv, bIv := pre.temps[cmp.A], pre.temps[cmp.B]
	if nameA := r.resolveVar(b, cmpIdx, cmp.A); nameA != "" {
		t, f := constrain(cmp.Op, bIv)
		applyVar(nameA, t, f)
	}
	if nameB := r.resolveVar(b, cmpIdx, cmp.B); nameB != "" {
		t, f := constrain(mirrorOp(cmp.Op), aIv)
		applyVar(nameB, t, f)
	}
}

// findCompare walks the block backward from the terminator, following Mov
// chains, to the comparison that defines the condition — returning its
// index and instruction, or -1.
func (r *Ranges) findCompare(b *cfg.Block, cond ir.Temp) (int, ir.Bin) {
	cur := cond
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		d, ok := ir.InstrDef(b.Instrs[i])
		if !ok || d != cur {
			continue
		}
		switch v := b.Instrs[i].(type) {
		case ir.Mov:
			cur = v.Src
		case ir.Bin:
			if v.Op.IsComparison() {
				return i, v
			}
			return -1, ir.Bin{}
		default:
			return -1, ir.Bin{}
		}
	}
	return -1, ir.Bin{}
}

// resolveVar reports the tracked scalar whose current value temp t holds at
// instruction index end of block b, or "". It requires t to trace (through
// Movs) to a LoadVar with no later store to that variable anywhere in the
// block — so the variable still holds the observed value at the block's
// exit.
func (r *Ranges) resolveVar(b *cfg.Block, end int, t ir.Temp) string {
	cur := t
	for i := end - 1; i >= 0; i-- {
		d, ok := ir.InstrDef(b.Instrs[i])
		if !ok || d != cur {
			continue
		}
		switch v := b.Instrs[i].(type) {
		case ir.Mov:
			cur = v.Src
		case ir.LoadVar:
			if r.vs.Index(v.Name) < 0 {
				return ""
			}
			for _, later := range b.Instrs[i+1:] {
				if sv, isStore := later.(ir.StoreVar); isStore && sv.Name == v.Name {
					return ""
				}
			}
			return v.Name
		default:
			return ""
		}
	}
	return ""
}

// constrain returns the (true-arm, false-arm) intervals for a variable v
// known to satisfy `v op other` / its negation, with other in o.
func constrain(op ir.Op, o Interval) (t, f Interval) {
	t, f = Top(), Top()
	switch op {
	case ir.OpLt:
		t.Hi, f.Lo = o.Hi-1, o.Lo
	case ir.OpLe:
		t.Hi, f.Lo = o.Hi, o.Lo+1
	case ir.OpGt:
		t.Lo, f.Hi = o.Lo+1, o.Hi
	case ir.OpGe:
		t.Lo, f.Hi = o.Lo, o.Hi-1
	case ir.OpEq:
		t = o
		if v, ok := o.Const(); ok {
			f = excludePoint(v)
		}
	case ir.OpNe:
		f = o
		if v, ok := o.Const(); ok {
			t = excludePoint(v)
		}
	}
	return t, f
}

// excludePoint returns the tightest interval excluding v: the domain can
// only carve at the endpoints, so interior points leave Top unchanged.
func excludePoint(v int) Interval {
	iv := Top()
	if v == iv.Lo {
		iv.Lo++
	} else if v == iv.Hi {
		iv.Hi--
	}
	return iv
}

// mirrorOp swaps a comparison's operand order (a op b == b mirror(op) a).
func mirrorOp(op ir.Op) ir.Op {
	switch op {
	case ir.OpLt:
		return ir.OpGt
	case ir.OpLe:
		return ir.OpGe
	case ir.OpGt:
		return ir.OpLt
	case ir.OpGe:
		return ir.OpLe
	}
	return op // Eq, Ne are symmetric
}

// ResolvedBranches returns, for every conditional branch the analysis
// proves one-way, the single successor control can actually reach.
// Branches in blocks the analysis never reached are not reported (they are
// dead code themselves).
func (r *Ranges) ResolvedBranches() map[ir.BlockID]ir.BlockID {
	out := make(map[ir.BlockID]ir.BlockID, len(r.res))
	for b, s := range r.res {
		out[b] = s
	}
	return out
}

// DeadBlocks returns blocks that are reachable in the CFG but that no
// execution can reach (every path to them crosses a dead branch arm), in
// ascending order.
func (r *Ranges) DeadBlocks() []ir.BlockID {
	var out []ir.BlockID
	for id := range r.proc.Reachable() {
		if r.in[id] == nil {
			out = append(out, id)
		}
	}
	sortBlockIDs(out)
	return out
}

func sortBlockIDs(ids []ir.BlockID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// EdgeVarInterval returns the interval of a scalar variable as control
// crosses the given edge, refined by the branch condition when the edge
// leaves a conditional block. The second result is false when the edge was
// never traversed under the analysis (dead) or the variable is untracked.
func (r *Ranges) EdgeVarInterval(from, to ir.BlockID, name string) (Interval, bool) {
	i := r.vs.Index(name)
	st := r.edge[[2]ir.BlockID{from, to}]
	if i < 0 || st == nil {
		return Top(), false
	}
	return st.vars[i], true
}

// tempAt returns the interval of a temp just before instruction idx of
// block b, replaying the block prefix from the fixpoint in-state.
func (r *Ranges) tempAt(b ir.BlockID, idx int, t ir.Temp) Interval {
	if int(b) >= len(r.in) || r.in[b] == nil || t < 0 || int(t) >= r.proc.NumTemp {
		return Top()
	}
	st := r.in[b].clone()
	blk := r.proc.Block(b)
	if idx > len(blk.Instrs) {
		idx = len(blk.Instrs)
	}
	for _, instr := range blk.Instrs[:idx] {
		r.step(st, instr)
	}
	return st.temps[t]
}
