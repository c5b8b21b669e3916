package isa

import (
	"strings"
	"testing"
)

func TestOpNamesComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if opNames[op] == "" {
			t.Fatalf("opcode %d has no name", op)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: LDI, Rd: 1, Imm: 42}, "ldi r1, 42"},
		{Instr{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instr{Op: LD, Rd: 1, Ra: 15, Imm: -2}, "ld r1, [r15-2]"},
		{Instr{Op: ST, Ra: 15, Imm: 3, Rb: 2}, "st [r15+3], r2"},
		{Instr{Op: BZ, Ra: 1, Imm: 10}, "bz r1, 10"},
		{Instr{Op: RET}, "ret"},
		{Instr{Op: IN, Rd: 3, Imm: PortADC}, "in r3, port1"},
		{Instr{Op: OUT, Imm: PortLED, Ra: 2}, "out port3, r2"},
		{Instr{Op: TRACE, Imm: 7}, "trace 7"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestBranchClassification(t *testing.T) {
	if !(Instr{Op: BZ}).IsCondBranch() || !(Instr{Op: BGE}).IsCondBranch() {
		t.Fatal("conditional branches not classified")
	}
	if (Instr{Op: JMP}).IsCondBranch() {
		t.Fatal("JMP classified as conditional")
	}
}

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel()
	for op := Op(0); op < numOps; op++ {
		if m.Cycles[op] == 0 {
			t.Fatalf("op %v has zero cycle cost", op)
		}
		if m.Bytes[op] == 0 {
			t.Fatalf("op %v has zero size", op)
		}
	}
	if m.Cycles[DIV] <= m.Cycles[ADD] {
		t.Fatal("DIV should cost more than ADD")
	}
	if m.Cycles[LD] <= m.Cycles[MOV] {
		t.Fatal("LD should cost more than MOV")
	}
	if m.TakenPenalty == 0 {
		t.Fatal("taken penalty must be nonzero for placement to matter")
	}
}

func TestCodeBytes(t *testing.T) {
	m := DefaultCostModel()
	code := []Instr{{Op: LDI}, {Op: ADD}, {Op: RET}}
	want := m.Bytes[LDI] + m.Bytes[ADD] + m.Bytes[RET]
	if got := m.CodeBytes(code); got != want {
		t.Fatalf("CodeBytes = %d, want %d", got, want)
	}
}

func TestRegString(t *testing.T) {
	if Reg(7).String() != "r7" {
		t.Fatal("Reg string wrong")
	}
	if !strings.HasPrefix(RegFP.String(), "r15") {
		t.Fatal("FP convention changed")
	}
}
