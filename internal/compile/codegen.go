package compile

import (
	"fmt"
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
)

// GlobalBase is the first RAM word used for globals (low words are left
// free as a guard/zero page).
const GlobalBase = 32

// Options configures code generation.
type Options struct {
	// Instrument selects the profiling instrumentation to insert.
	Instrument Mode
	// Layouts optionally overrides the basic-block emission order per
	// procedure (a permutation of its block IDs). Missing entries use the
	// natural (lowering) order.
	Layouts map[string][]ir.BlockID
	// BranchHints optionally records, per procedure and branch block,
	// whether the Br's True successor is the likelier one. When a branch
	// has no fall-through successor under the layout, the backend aims
	// the conditional branch at the colder arm (and the unconditional JMP
	// at the hotter one), minimizing mispredictions at equal cycle cost.
	BranchHints map[string]map[ir.BlockID]bool
	// FuseCompares enables the compare-branch peephole: a comparison
	// whose boolean result feeds only the block's branch is emitted as a
	// single compare-and-branch instruction (BEQ/BNE/BLT/BGE) instead of
	// materializing the boolean. Ignored in ModeEdgeCounters builds.
	FuseCompares bool
	// RotateLoops rewrites natural loops into bottom-test form before
	// code generation (see RotateLoops), turning loop latches into
	// backward conditional branches that BTFN-style prediction wins on.
	RotateLoops bool
	// DeadBranchElim folds conditional branches whose direction the range
	// analysis proves (see EliminateDeadBranches) and prunes the arms that
	// can never execute. Runs before loop rotation so rotation sees the
	// simplified CFG.
	DeadBranchElim bool
	// VerifyIR runs the strict IR verifier (analysis.Verify) on the CFG
	// after lowering and again after every CFG-mutating pass, so a pass
	// that breaks an invariant fails at the pass that broke it. The test
	// suite keeps it always on; production builds may skip it for speed.
	VerifyIR bool
	// Cost is the cycle/size table; nil means isa.DefaultCostModel().
	Cost *isa.CostModel
	// PGO, when non-nil, runs the profile-guided pipeline (inlining,
	// superblocks, hot/cold splitting, page packing — see PGOOptions)
	// between the middle-end passes and code generation. Build fills
	// Layouts and BranchHints from it.
	PGO *PGOOptions

	// coldBlocks names the blocks runPGO's hot/cold split moves into the
	// program's cold flash region, placed after every procedure's hot
	// region. Entries for a procedure's entry block are ignored (the
	// prologue stays hot).
	coldBlocks map[string]map[ir.BlockID]bool

	// pgoWeights holds the pass-transformed edge weights runPGO computed —
	// the ones matching the CFG the backend actually emits (superblock and
	// inlining redistribute weight over new blocks). Page packing reads
	// them; PGO.Weights keeps the caller's originals.
	pgoWeights map[string]ProcWeights
}

// Output is a compiled program: machine code, the timing/placement
// metadata, and the CFG it was generated from.
type Output struct {
	Code []isa.Instr
	Meta *Meta
	CFG  *cfg.Program
}

type callFixup struct {
	idx  int
	name string
}

type branchFixup struct {
	idx   int
	block ir.BlockID
}

type emitter struct {
	opts Options
	cost *isa.CostModel
	prog *cfg.Program
	code []isa.Instr
	meta *Meta

	globalScalars map[string]int32
	globalArrays  map[string]int32

	callFixups []callFixup
	nextArcID  int32
	pending    []*pendingProc
}

// pendingProc carries what a procedure's deferred work needs: its cold
// blocks are emitted only after every hot region (so the hot regions stay
// contiguous in flash), and its branch fixups resolve only after that (hot
// code jumps into cold blocks whose addresses do not exist yet).
type pendingProc struct {
	p         *cfg.Proc
	fr        *frame
	pm        *ProcMeta
	cold      []ir.BlockID
	fixups    []branchFixup
	tempReads []int
}

// Generate emits M16 machine code for a lowered program.
func Generate(prog *cfg.Program, opts Options) (*Output, error) {
	if opts.Cost == nil {
		opts.Cost = isa.DefaultCostModel()
	}
	e := &emitter{
		opts:          opts,
		cost:          opts.Cost,
		prog:          prog,
		globalScalars: make(map[string]int32),
		globalArrays:  make(map[string]int32),
		meta: &Meta{
			ProcByName: make(map[string]*ProcMeta),
			GlobalAddr: make(map[string]int32),
			Mode:       opts.Instrument,
			Cost:       opts.Cost,
		},
	}
	e.layoutGlobals()

	e.emitStub()

	// When page packing is on, emit unweighted procedures first: a pad
	// shifts every later address, so code the packer cannot model (no
	// profile, e.g. a run-once main whose loop is still hot) must not sit
	// downstream of the regions it packs. Weighted procedures re-optimize
	// their own shift in emission order, and the cold region at the very
	// end holds only negligible weight by construction.
	order := prog.Procs
	if pgo := e.opts.PGO; pgo != nil && pgo.PagePack && e.cost.PageSizeBytes > 0 {
		order = make([]*cfg.Proc, 0, len(prog.Procs))
		var weighted []*cfg.Proc
		for _, p := range prog.Procs {
			if e.pagePackWanted(p.Name) {
				weighted = append(weighted, p)
			} else {
				order = append(order, p)
			}
		}
		order = append(order, weighted...)
	}
	for i, p := range order {
		if err := e.genProc(p, i); err != nil {
			return nil, err
		}
	}
	// Cold regions live after every hot region, contiguous per procedure.
	for _, pp := range e.pending {
		if len(pp.cold) == 0 {
			continue
		}
		pp.pm.ColdStartAddr = int32(len(e.code))
		if err := e.emitBlocks(pp.p, pp.fr, pp.pm, pp.cold, &pp.fixups, pp.tempReads); err != nil {
			return nil, err
		}
		pp.pm.ColdEndAddr = int32(len(e.code))
	}
	// Resolve intra-procedure branch targets — deferred program-wide
	// because hot code may branch into a cold block emitted only above.
	for _, pp := range e.pending {
		for _, f := range pp.fixups {
			addr, ok := pp.pm.BlockAddr[f.block]
			if !ok {
				return nil, fmt.Errorf("compile: %s: fixup to unknown block %v", pp.pm.Name, f.block)
			}
			e.code[f.idx].Imm = addr
		}
	}
	// Resolve CALL targets.
	for _, f := range e.callFixups {
		pm, ok := e.meta.ProcByName[f.name]
		if !ok {
			return nil, fmt.Errorf("compile: call to unknown procedure %q", f.name)
		}
		e.code[f.idx].Imm = pm.EntryAddr
	}
	e.computePageCrosses()
	e.meta.CodeBytes = e.cost.CodeBytes(e.code)
	e.meta.NumArcCounters = int(e.nextArcID)
	e.meta.Code = e.code
	return &Output{Code: e.code, Meta: e.meta, CFG: prog}, nil
}

// computePageCrosses fills EdgeInfo.PageCrosses once every branch and call
// target is resolved: an edge crosses a page for each of its redirects (the
// taken conditional branch, the explicit JMP) whose target lies on a
// different flash page than the transfer instruction — exactly the events
// the mote charges Cost.PageCrossPenalty for. Runs whenever the cost model
// has a page size, so tools can report page locality even at zero penalty.
func (e *emitter) computePageCrosses() {
	ps := e.cost.PageSizeBytes
	if ps == 0 {
		return
	}
	off := e.cost.ByteOffsets(e.code)
	page := func(pc int32) uint32 { return off[pc] / ps }
	for _, pm := range e.meta.Procs {
		for k, info := range pm.Edges {
			var n uint8
			if info.BranchPC >= 0 && info.Taken && page(e.code[info.BranchPC].Imm) != page(info.BranchPC) {
				n++
			}
			if info.ViaJmp && info.JmpPC >= 0 && page(e.code[info.JmpPC].Imm) != page(info.JmpPC) {
				n++
			}
			if n != 0 {
				info.PageCrosses = n
				pm.Edges[k] = info
			}
		}
	}
}

func (e *emitter) layoutGlobals() {
	addr := int32(GlobalBase)
	for _, name := range e.prog.Globals {
		e.globalScalars[name] = addr
		e.meta.GlobalAddr[name] = addr
		addr++
	}
	names := make([]string, 0, len(e.prog.GlobalArrays))
	for name := range e.prog.GlobalArrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.globalArrays[name] = addr
		e.meta.GlobalAddr[name] = addr
		addr += int32(e.prog.GlobalArrays[name])
	}
	e.meta.GlobalWords = int(addr)
}

// emit appends an instruction and returns its address.
func (e *emitter) emit(in isa.Instr) int32 {
	e.code = append(e.code, in)
	return int32(len(e.code) - 1)
}

func (e *emitter) cyc(op isa.Op) uint64 { return uint64(e.cost.Cycles[op]) }

// emitStub emits the reset vector: global initialization, CALL main, HALT.
func (e *emitter) emitStub() {
	for _, init := range e.prog.GlobalInits {
		e.emit(isa.Instr{Op: isa.LDI, Rd: isa.RegScratch1, Imm: int32(init.Val)})
		e.emit(isa.Instr{Op: isa.LDI, Rd: isa.RegScratch2, Imm: e.meta.GlobalAddr[init.Name]})
		e.emit(isa.Instr{Op: isa.ST, Ra: isa.RegScratch2, Imm: 0, Rb: isa.RegScratch1})
	}
	idx := e.emit(isa.Instr{Op: isa.CALL})
	e.callFixups = append(e.callFixups, callFixup{idx: int(idx), name: "main"})
	e.emit(isa.Instr{Op: isa.HALT})
}

func (e *emitter) genProc(p *cfg.Proc, procIdx int) error {
	fr := newFrame(p)
	layout := e.opts.Layouts[p.Name]
	if layout == nil {
		layout = make([]ir.BlockID, len(p.Blocks))
		for i := range p.Blocks {
			layout[i] = ir.BlockID(i)
		}
	}
	if err := validateLayout(p, layout); err != nil {
		return err
	}

	// Partition the layout into the hot region (emitted here) and the
	// cold run (deferred until every hot region exists). Relative order
	// within each region follows the layout; the entry stays hot.
	coldSet := e.opts.coldBlocks[p.Name]
	var hot, cold []ir.BlockID
	for _, bid := range layout {
		if coldSet[bid] && bid != p.Entry {
			cold = append(cold, bid)
		} else {
			hot = append(hot, bid)
		}
	}

	pm := &ProcMeta{
		Name:          p.Name,
		Index:         procIdx,
		EntryBlock:    p.Entry,
		Layout:        append(append([]ir.BlockID(nil), hot...), cold...),
		BlockAddr:     make(map[ir.BlockID]int32),
		BlockCycles:   make(map[ir.BlockID]uint64),
		Edges:         make(map[EdgeKey]EdgeInfo),
		EnterTraceID:  int32(procIdx * 2),
		ExitTraceID:   int32(procIdx*2 + 1),
		ArcCounters:   make(map[EdgeKey]int32),
		ColdStartAddr: -1,
		ColdEndAddr:   -1,
	}
	e.meta.Procs = append(e.meta.Procs, pm)
	e.meta.ProcByName[p.Name] = pm

	var tempReads []int
	if e.opts.FuseCompares && e.opts.Instrument != ModeEdgeCounters {
		tempReads = tempReadCounts(p)
	}
	pp := &pendingProc{p: p, fr: fr, pm: pm, cold: cold, tempReads: tempReads}
	e.pending = append(e.pending, pp)

	snapCode, snapCalls, snapArc := len(e.code), len(e.callFixups), e.nextArcID
	if err := e.emitBlocks(p, fr, pm, hot, &pp.fixups, tempReads); err != nil {
		return err
	}
	pm.EndAddr = int32(len(e.code))

	if e.pagePackWanted(p.Name) {
		if pad := e.pagePad(snapCode, pm); pad > 0 {
			// Re-emitting behind NOP padding (rather than shifting the
			// already-emitted code) keeps every absolute immediate the
			// emitters resolved mid-stream correct.
			e.code = e.code[:snapCode]
			e.callFixups = e.callFixups[:snapCalls]
			e.nextArcID = snapArc
			pp.fixups = pp.fixups[:0]
			pm.BlockAddr = make(map[ir.BlockID]int32, len(hot))
			pm.BlockCycles = make(map[ir.BlockID]uint64, len(hot))
			pm.Edges = make(map[EdgeKey]EdgeInfo)
			pm.ArcCounters = make(map[EdgeKey]int32)
			for i := 0; i < pad; i++ {
				e.emit(isa.Instr{Op: isa.NOP})
			}
			if err := e.emitBlocks(p, fr, pm, hot, &pp.fixups, tempReads); err != nil {
				return err
			}
			pm.EndAddr = int32(len(e.code))
		}
	}
	return nil
}

// pagePackWanted reports whether the procedure's hot region should be
// shifted relative to flash-page boundaries to minimize hot page straddles.
func (e *emitter) pagePackWanted(name string) bool {
	pgo := e.opts.PGO
	return pgo != nil && pgo.PagePack && e.cost.PageSizeBytes > 0 && e.pgoWeightsFor(name) != nil
}

// pgoWeightsFor returns the edge weights the backend should trust for the
// procedure: the pass-transformed ones when the PGO pipeline ran, else the
// caller's originals.
func (e *emitter) pgoWeightsFor(name string) ProcWeights {
	if w := e.opts.pgoWeights[name]; w != nil {
		return w
	}
	return e.opts.PGO.Weights[name]
}

// pagePad returns how many NOP words to insert before the hot region
// starting at instruction index start to minimize the region's expected
// page-crossing traffic: every charged redirect (taken conditional branch
// or JMP) whose source and target straddle a flash page pays the refill
// penalty per traversal, so the objective is the profile-weighted count of
// straddling redirects, evaluated exactly from the just-emitted code at
// every page-relative shift. A zero shift is always a candidate (packing
// can never make the estimate worse) and wins ties, so the pad is 0
// whenever alignment buys nothing. The padding never executes: it sits
// between the previous procedure's end and this one's entry.
func (e *emitter) pagePad(start int, pm *ProcMeta) int {
	ps := e.cost.PageSizeBytes
	w := e.pgoWeightsFor(pm.Name)
	if e.cost.CodeBytes(e.code[start:]) == 0 || len(w) == 0 {
		return 0
	}
	off := e.cost.ByteOffsets(e.code)
	// Weighted redirect events wholly inside the hot region. Targets not
	// yet emitted are cold blocks: unknown addresses, negligible weight.
	type event struct {
		pc, tgt int32
		w       float64
	}
	var evs []event
	for k, info := range pm.Edges {
		wt := w[[2]ir.BlockID{k.From, k.To}]
		if wt == 0 {
			continue
		}
		tgt, ok := pm.BlockAddr[k.To]
		if !ok {
			continue
		}
		if info.Taken && info.BranchPC >= 0 {
			evs = append(evs, event{pc: info.BranchPC, tgt: tgt, w: wt})
		}
		if info.ViaJmp && info.JmpPC >= 0 {
			evs = append(evs, event{pc: info.JmpPC, tgt: tgt, w: wt})
		}
	}
	if len(evs) == 0 {
		return 0
	}
	// Map iteration fed evs; fix the summation order so the chosen shift
	// never depends on it.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pc != evs[j].pc {
			return evs[i].pc < evs[j].pc
		}
		return evs[i].tgt < evs[j].tgt
	})
	costAt := func(shift uint32) float64 {
		c := 0.0
		for _, v := range evs {
			if (off[v.pc]+shift)/ps != (off[v.tgt]+shift)/ps {
				c += v.w
			}
		}
		return c
	}
	best, bestCost := uint32(0), costAt(0)
	for s := uint32(2); s < ps; s += 2 {
		if c := costAt(s); c < bestCost {
			best, bestCost = s, c
		}
	}
	return int(best / 2)
}

// emitBlocks emits one contiguous run of blocks: consecutive entries fall
// through, the run's last block gets no implied successor, and the entry
// block (always in the hot run) gets the procedure preamble.
func (e *emitter) emitBlocks(p *cfg.Proc, fr *frame, pm *ProcMeta, run []ir.BlockID, branchFixups *[]branchFixup, tempReads []int) error {
	timestamps := e.opts.Instrument == ModeTimestamps

	for li, bid := range run {
		b := p.Block(bid)
		var next ir.BlockID = -1
		if li+1 < len(run) {
			next = run[li+1]
		}

		if bid == p.Entry {
			// Procedure preamble. EntryOverhead is charged once per
			// invocation by the timing model.
			pm.EntryAddr = int32(len(e.code))
			var over uint64
			if timestamps {
				e.emit(isa.Instr{Op: isa.TRACE, Imm: pm.EnterTraceID})
				over += e.cyc(isa.TRACE)
			}
			e.emit(isa.Instr{Op: isa.PUSH, Ra: isa.RegFP})
			e.emit(isa.Instr{Op: isa.GETSP, Rd: isa.RegFP})
			over += e.cyc(isa.PUSH) + e.cyc(isa.GETSP)
			if fr.size > 0 {
				e.emit(isa.Instr{Op: isa.SPADJ, Imm: -fr.size})
				over += e.cyc(isa.SPADJ)
			}
			pm.EntryOverhead = over
		}
		pm.BlockAddr[bid] = int32(len(e.code))

		var fuse *ir.Bin
		if tempReads != nil {
			fuse = fusableCompare(p, b, tempReads)
		}
		body := b.Instrs
		if fuse != nil {
			body = body[:len(body)-1]
		}

		var cycles uint64
		for _, in := range body {
			c, err := e.genInstr(in, fr, timestamps)
			if err != nil {
				return fmt.Errorf("compile: %s/%v: %w", p.Name, bid, err)
			}
			cycles += c
		}

		switch t := b.Term.(type) {
		case ir.Ret:
			if t.Val >= 0 {
				e.emit(isa.Instr{Op: isa.LD, Rd: isa.RegRet, Ra: isa.RegFP, Imm: -fr.tempOff(t.Val)})
				cycles += e.cyc(isa.LD)
			}
			// Everything from the exit TRACE on is outside the measured
			// interval: charged to the caller via its call-site constant.
			if timestamps {
				e.emit(isa.Instr{Op: isa.TRACE, Imm: pm.ExitTraceID})
			}
			if fr.size > 0 {
				e.emit(isa.Instr{Op: isa.SPADJ, Imm: fr.size})
			}
			e.emit(isa.Instr{Op: isa.POP, Rd: isa.RegFP})
			e.emit(isa.Instr{Op: isa.RET})

		case ir.Halt:
			e.emit(isa.Instr{Op: isa.HALT})
			cycles += e.cyc(isa.HALT)

		case ir.Jmp:
			info := EdgeInfo{BranchPC: -1, JmpPC: -1}
			if t.Target != next {
				idx := e.emit(isa.Instr{Op: isa.JMP})
				*branchFixups = append(*branchFixups, branchFixup{idx: int(idx), block: t.Target})
				info.ViaJmp = true
				info.JmpPC = idx
			}
			pm.Edges[EdgeKey{From: bid, To: t.Target}] = info

		case ir.Br:
			hotTrue := e.opts.BranchHints[p.Name][bid]
			switch {
			case e.opts.Instrument == ModeEdgeCounters:
				e.emit(isa.Instr{Op: isa.LD, Rd: isa.RegScratch1, Ra: isa.RegFP, Imm: -fr.tempOff(t.Cond)})
				cycles += e.cyc(isa.LD)
				cycles += e.genCountedBranch(pm, bid, t, next, branchFixups)
			case fuse != nil:
				e.emit(isa.Instr{Op: isa.LD, Rd: isa.RegScratch1, Ra: isa.RegFP, Imm: -fr.tempOff(fuse.A)})
				e.emit(isa.Instr{Op: isa.LD, Rd: isa.RegScratch2, Ra: isa.RegFP, Imm: -fr.tempOff(fuse.B)})
				cycles += 2 * e.cyc(isa.LD)
				cycles += e.genBranch(pm, bid, t, next, hotTrue, fusedCond(fuse.Op), branchFixups)
			default:
				e.emit(isa.Instr{Op: isa.LD, Rd: isa.RegScratch1, Ra: isa.RegFP, Imm: -fr.tempOff(t.Cond)})
				cycles += e.cyc(isa.LD)
				cycles += e.genBranch(pm, bid, t, next, hotTrue, plainCond, branchFixups)
			}

		default:
			return fmt.Errorf("compile: %s/%v: unknown terminator %T", p.Name, bid, b.Term)
		}
		pm.BlockCycles[bid] = cycles
	}
	return nil
}

// genBranch emits the conditional control transfer for a Br, records edge
// metadata, and returns the cycles charged to the block (the branch's base
// cost; direction-dependent costs go to the edges). cond builds the branch
// that transfers when the condition holds, or fails if negate is set. The
// branch targets the arm that is not the next block; when neither is, the
// polarity hint aims it at the colder arm, making the hot arm an always-JMP
// (never mispredicted).
func (e *emitter) genBranch(pm *ProcMeta, bid ir.BlockID, t ir.Br, next ir.BlockID, hotTrue bool, cond func(negate bool) isa.Instr, fixups *[]branchFixup) uint64 {
	negate := t.False != next && (t.True == next || hotTrue)
	taken, other := t.True, t.False
	if negate {
		taken, other = t.False, t.True
	}
	pc := e.emit(cond(negate))
	*fixups = append(*fixups, branchFixup{idx: int(pc), block: taken})
	pm.Edges[EdgeKey{From: bid, To: taken}] = EdgeInfo{BranchPC: pc, Taken: true, JmpPC: -1}
	fall := EdgeInfo{BranchPC: pc, Taken: false, JmpPC: -1}
	if other != next {
		jmp := e.emit(isa.Instr{Op: isa.JMP})
		*fixups = append(*fixups, branchFixup{idx: int(jmp), block: other})
		fall.ViaJmp, fall.JmpPC = true, jmp
	}
	pm.Edges[EdgeKey{From: bid, To: other}] = fall
	return e.cyc(e.code[pc].Op)
}

// plainCond is genBranch's cond for a boolean condition in r1.
func plainCond(negate bool) isa.Instr {
	if negate {
		return isa.Instr{Op: isa.BZ, Ra: isa.RegScratch1}
	}
	return isa.Instr{Op: isa.BNZ, Ra: isa.RegScratch1}
}

// genCountedBranch is the ModeEdgeCounters variant: each arc increments a
// dedicated PROFCNT counter before transferring.
//
//	bz r1, Lfalse
//	profcnt trueID ; jmp True
//	Lfalse: profcnt falseID ; jmp False (or fall through)
func (e *emitter) genCountedBranch(pm *ProcMeta, bid ir.BlockID, t ir.Br, next ir.BlockID, fixups *[]branchFixup) uint64 {
	trueID := e.nextArcID
	falseID := e.nextArcID + 1
	e.nextArcID += 2
	pm.ArcCounters[EdgeKey{From: bid, To: t.True}] = trueID
	pm.ArcCounters[EdgeKey{From: bid, To: t.False}] = falseID

	pc := e.emit(isa.Instr{Op: isa.BZ, Ra: isa.RegScratch1})
	e.emit(isa.Instr{Op: isa.PROFCNT, Imm: trueID})
	jt := e.emit(isa.Instr{Op: isa.JMP})
	*fixups = append(*fixups, branchFixup{idx: int(jt), block: t.True})
	e.code[pc].Imm = int32(len(e.code)) // Lfalse
	e.emit(isa.Instr{Op: isa.PROFCNT, Imm: falseID})
	falseViaJmp := t.False != next
	jf := int32(-1)
	if falseViaJmp {
		jf = e.emit(isa.Instr{Op: isa.JMP})
		*fixups = append(*fixups, branchFixup{idx: int(jf), block: t.False})
	}
	pm.Edges[EdgeKey{From: bid, To: t.True}] = EdgeInfo{
		BranchPC: pc, Taken: false, ViaJmp: true, JmpPC: jt,
		Extra: uint64(e.cost.Cycles[isa.PROFCNT]),
	}
	pm.Edges[EdgeKey{From: bid, To: t.False}] = EdgeInfo{
		BranchPC: pc, Taken: true, ViaJmp: falseViaJmp, JmpPC: jf,
		Extra: uint64(e.cost.Cycles[isa.PROFCNT]),
	}
	return e.cyc(isa.BZ)
}

// validateLayout checks that layout is a permutation of the procedure's
// block IDs.
func validateLayout(p *cfg.Proc, layout []ir.BlockID) error {
	if len(layout) != len(p.Blocks) {
		return fmt.Errorf("compile: %s: layout has %d blocks, want %d", p.Name, len(layout), len(p.Blocks))
	}
	seen := make(map[ir.BlockID]bool, len(layout))
	for _, id := range layout {
		if int(id) < 0 || int(id) >= len(p.Blocks) {
			return fmt.Errorf("compile: %s: layout references unknown block %v", p.Name, id)
		}
		if seen[id] {
			return fmt.Errorf("compile: %s: layout repeats block %v", p.Name, id)
		}
		seen[id] = true
	}
	return nil
}
