package mote

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
// programs almost never form the frame idioms the block core fuses;
// compiled ones are full of them, so here stops land inside fused idioms,
// and the test requires some budget stop to.
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
	midIdiom := 0
	for _, s := range srcs {
		for _, b := range compiledBuilds(t, s.name, s.src) {
			tag := s.name + "/" + b.name
			for op, n := range fusedKinds(b.code) {
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
				if insideFused(f.code, f.pc) {
					midIdiom++
				}
				if f.halted || errF != nil && !errors.Is(errF, ErrCycleBudget) {
					break // halted or faulted: the final run compares the rest
				}
			}
			errF, errR := f.Run(1<<24), ref.RunReference(1<<24)
			compareState(t, tag+" final", f, ref, errF, errR)
		}
	}
	for _, op := range []isa.Op{opCopy, opConst, opBinop} {
		if fused[op] == 0 {
			t.Errorf("no build fused any kind-%d idiom", op)
		}
	}
	if midIdiom == 0 {
		t.Error("no budget stop landed inside a fused idiom")
	}
	t.Logf("fused idioms decoded: %d copy, %d const, %d binop; %d budget stops inside one",
		fused[opCopy], fused[opConst], fused[opBinop], midIdiom)
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
	case opCopy, opConst:
		return 2
	case opBinop:
		return 4
	}
	return 1
}

// fusedKinds counts the fused idioms the block core decodes in prog.
func fusedKinds(prog []isa.Instr) map[isa.Op]int {
	n := map[isa.Op]int{}
	for _, in := range decodeBlocks(prog, isa.DefaultCostModel()).dec {
		if fusedLen(in.Op) > 1 {
			n[in.Op]++
		}
	}
	return n
}

// insideFused reports whether pc is a later instruction of a fused idiom.
func insideFused(code *blockCode, pc int32) bool {
	for j := 1; j < 4; j++ {
		if k := int(pc) - j; k >= 0 && k < len(code.dec) && fusedLen(code.dec[k].Op) > j {
			return true
		}
	}
	return false
}
