package mote

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
)

// TestCompiledCoresAgree runs real backend output through both cores:
// every app and every program of the examples/minic corpus, each as a
// plain, a timestamp-instrumented and a full-PGO paged build, under a
// fault-reset schedule with the budget fed in installments. Random
// programs almost never form the frame idioms the block core fuses or the
// jump chains it threads; compiled ones are full of them, so the test
// requires every dispatch kind to be decoded somewhere and some budget
// stop to land inside a fused idiom, and inside one of the second wave's
// (expr, copy-expr, their branch and copy tails, load-and-branch).
func TestCompiledCoresAgree(t *testing.T) {
	var srcs []struct{ name, src string }
	for _, a := range append(apps.All(), apps.CallChain) {
		src, err := a.Source(20)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, struct{ name, src string }{a.Name, src})
	}
	corpus, err := filepath.Glob("../../examples/minic/*.mc")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("examples/minic: %v (%d files)", err, len(corpus))
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, struct{ name, src string }{filepath.Base(path), string(b)})
	}

	r := rand.New(rand.NewSource(0xB10C))
	fused := map[isa.Op]int{}
	midIdiom, midNew := 0, 0
	for _, s := range srcs {
		for _, b := range compiledBuilds(t, s.name, s.src) {
			tag := s.name + "/" + b.name
			for op, n := range fusedKinds(b.code, b.cost) {
				fused[op] += n
			}
			var resets []ResetEvent
			at := uint64(0)
			for i := 0; i < 3; i++ {
				at += 500 + uint64(r.Intn(20000))
				resets = append(resets, ResetEvent{AtCycle: at, DownCycles: uint64(r.Intn(40))})
			}
			mk := func() *Machine {
				cfg := compiledCfg()
				cfg.Cost = b.cost
				cfg.Resets = resets
				return New(b.code, cfg)
			}
			f, ref := mk(), mk()
			budget := uint64(0)
			for k := 0; k < 40; k++ {
				budget += 1 + uint64(r.Intn(3000))
				errF, errR := f.Run(budget), ref.RunReference(budget)
				compareState(t, fmt.Sprintf("%s installment %d budget %d", tag, k, budget), f, ref, errF, errR)
				if op := insideFused(f.code, f.pc); op != 0 {
					midIdiom++
					if op >= opExpr {
						midNew++
					}
				}
				if f.halted || errF != nil && !errors.Is(errF, ErrCycleBudget) {
					break // halted or faulted: the final run compares the rest
				}
			}
			errF, errR := f.Run(1<<24), ref.RunReference(1<<24)
			compareState(t, tag+" final", f, ref, errF, errR)
		}
	}
	for op := opCopy; op <= opSgt; op++ {
		if fused[op] == 0 {
			t.Errorf("no build decoded any %s", kindName(op))
		}
	}
	if midIdiom == 0 {
		t.Error("no budget stop landed inside a fused idiom")
	}
	if midNew == 0 {
		t.Error("no budget stop landed inside an expr, copy-expr or load-and-branch idiom")
	}
	var decoded []string
	for op := opCopy; op <= opSgt; op++ {
		decoded = append(decoded, fmt.Sprintf("%d %s", fused[op], kindName(op)))
	}
	t.Logf("decoded: %s; %d budget stops inside a fused idiom, %d inside a second-wave one",
		strings.Join(decoded, ", "), midIdiom, midNew)
}

// compiledBuild is one build of a program and the cost model it was built
// (and must run) under.
type compiledBuild struct {
	name string
	code []isa.Instr
	cost *isa.CostModel
}

// compiledBuilds compiles src plain, timestamp-instrumented, and through
// the full PGO pipeline (uniform weights) for flash with a page-cross
// penalty.
func compiledBuilds(t *testing.T, name, src string) []compiledBuild {
	t.Helper()
	plain, err := compile.Build(src, compile.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	weights := make(map[string]compile.ProcWeights)
	for _, p := range plain.CFG.Procs {
		if len(p.BranchBlocks()) > 0 {
			weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, markov.Uniform(p)))
		}
	}
	paged := isa.DefaultCostModel()
	paged.PageCrossPenalty = 5
	pgo := &compile.PGOOptions{Weights: weights, Inline: true, Superblock: true, HotCold: true, PagePack: true}
	out := []compiledBuild{{"plain", plain.Code, isa.DefaultCostModel()}}
	for _, o := range []struct {
		name string
		opts compile.Options
	}{
		{"timestamps", compile.Options{Instrument: compile.ModeTimestamps}},
		{"pgo-paged", compile.Options{PGO: pgo, Cost: paged}},
	} {
		b, err := compile.Build(src, o.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, o.name, err)
		}
		cost := o.opts.Cost
		if cost == nil {
			cost = isa.DefaultCostModel()
		}
		out = append(out, compiledBuild{o.name, b.Code, cost})
	}
	return out
}

// fusedLen is the number of instructions a dispatch kind covers.
func fusedLen(op isa.Op) int {
	switch op {
	case opCopy, opConst, opLdBr, opLdOut, opConstOut:
		return 2
	case opEnter, opLeave:
		return 3
	case opTrEnter, opTrLeave, opLdTrLeave:
		return fusedLen(op+1) + 1
	case opBinop:
		return 4
	case opExpr:
		return 6
	case opCopyExpr:
		return 8
	case opBinopBr, opExprBr, opCopyExprBr:
		return fusedLen(op-(opBinopBr-opBinop)) + 2
	case opBinopCp, opExprCp, opCopyExprCp:
		return fusedLen(op-(opBinopCp-opBinop)) + 2
	}
	return 1
}

// fusedKinds counts the fused idioms and threaded jumps the block core
// decodes in prog under cost.
func fusedKinds(prog []isa.Instr, cost *isa.CostModel) map[isa.Op]int {
	n := map[isa.Op]int{}
	for _, in := range decodeBlocks(prog, cost).dec {
		if fusedLen(in.Op) > 1 || in.Op >= opJmp && in.Op <= opSgt {
			n[in.Op]++
		}
	}
	return n
}

// insideFused returns the kind of the fused idiom that pc is a later
// instruction of, or 0 when there is none.
func insideFused(code *blockCode, pc int32) isa.Op {
	for j := 1; j < fusedLen(opCopyExprBr); j++ {
		if k := int(pc) - j; k >= 0 && k < len(code.dec) && fusedLen(code.dec[k].Op) > j {
			return code.dec[k].Op
		}
	}
	return 0
}

// kindName names a dispatch kind: an opcode's mnemonic or a fused kind.
func kindName(op isa.Op) string {
	names := map[isa.Op]string{opCopy: "COPY", opConst: "CONST", opBinop: "BINOP",
		opExpr: "EXPR", opCopyExpr: "COPYEXPR", opBinopBr: "BINOP-BR", opExprBr: "EXPR-BR",
		opCopyExprBr: "COPYEXPR-BR", opBinopCp: "BINOP-CP", opExprCp: "EXPR-CP",
		opCopyExprCp: "COPYEXPR-CP", opLdBr: "LD-BR", opLdOut: "LD-OUT", opConstOut: "CONST-OUT",
		opTrEnter: "TR-ENTER", opEnter: "ENTER", opLdTrLeave: "LD-TR-LEAVE", opTrLeave: "TR-LEAVE",
		opLeave: "LEAVE", opJmp: "JMP", opJmpX: "JMP-X", opCall: "CALL", opSgt: "SGT",
		opEnd: "END", opBad: "BAD"}
	if n, ok := names[op]; ok {
		return n
	}
	if op < opCopy {
		return op.String()
	}
	return fmt.Sprintf("kind%d", op)
}
