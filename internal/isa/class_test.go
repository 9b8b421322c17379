package isa

import (
	"slices"
	"strings"
	"testing"
)

func TestCandidatesHaveSingleEquivalents(t *testing.T) {
	for _, op := range Candidates() {
		s, ok := SingleEquivalent(op)
		if !ok {
			t.Errorf("%s: candidate without single equivalent", op)
			continue
		}
		if s == op {
			t.Errorf("%s: single equivalent is itself", op)
		}
		if IsCandidate(s) {
			t.Errorf("%s -> %s: single equivalent must not itself be a candidate", op, s)
		}
	}
}

func TestSingleEquivalentNaming(t *testing.T) {
	// The naming convention mirrors x86: xxxSD -> xxxSS, xxxPD -> xxxPS.
	for _, op := range Candidates() {
		s, _ := SingleEquivalent(op)
		dn, sn := op.String(), s.String()
		switch {
		case strings.HasSuffix(dn, "sd"):
			want := strings.TrimSuffix(dn, "sd") + "ss"
			if sn != want && dn != "cvtsi2sd" && dn != "cvttsd2si" {
				t.Errorf("%s -> %s, want %s", dn, sn, want)
			}
		case strings.HasSuffix(dn, "pd"):
			if want := strings.TrimSuffix(dn, "pd") + "ps"; sn != want {
				t.Errorf("%s -> %s, want %s", dn, sn, want)
			}
		}
	}
}

func TestConversionCandidates(t *testing.T) {
	if s, ok := SingleEquivalent(CVTSI2SD); !ok || s != CVTSI2SS {
		t.Errorf("cvtsi2sd -> %v, %v", s, ok)
	}
	if s, ok := SingleEquivalent(CVTTSD2SI); !ok || s != CVTTSS2SI {
		t.Errorf("cvttsd2si -> %v, %v", s, ok)
	}
	if !IsProducer(CVTSI2SD) {
		t.Error("cvtsi2sd should be a producer")
	}
	if IsProducer(CVTTSD2SI) {
		t.Error("cvttsd2si should not be a producer")
	}
}

func TestMovesAreNotCandidates(t *testing.T) {
	for _, op := range []Op{MOVSD, MOVSS, MOVAPD, MOVQ, MOVHQ, LOAD, STORE, ANDPD, ORPD, XORPD} {
		if IsCandidate(op) {
			t.Errorf("%s must not be a candidate (pure bit movement / masking)", op)
		}
	}
}

func TestPackedClassification(t *testing.T) {
	for _, op := range []Op{ADDPD, SUBPD, MULPD, DIVPD, SQRTPD} {
		if !IsPacked(op) {
			t.Errorf("%s should be packed", op)
		}
	}
	for _, op := range []Op{ADDSD, SQRTSD, UCOMISD} {
		if IsPacked(op) {
			t.Errorf("%s should not be packed", op)
		}
	}
}

func TestDstIsSource(t *testing.T) {
	if !DstIsSource(ADDSD) || !DstIsSource(UCOMISD) {
		t.Error("two-operand ALU forms read their destination")
	}
	if DstIsSource(SQRTSD) || DstIsSource(SINSD) || DstIsSource(CVTSI2SD) {
		t.Error("sqrt/transcendental/convert forms do not read their destination")
	}
}

func TestWritesDst(t *testing.T) {
	if WritesDst(UCOMISD) {
		t.Error("ucomisd only sets flags")
	}
	if !WritesDst(ADDSD) || !WritesDst(SQRTSD) || !WritesDst(CVTTSD2SI) {
		t.Error("arithmetic forms write their destination")
	}
}

func TestBranchPredicates(t *testing.T) {
	for _, op := range []Op{JMP, JE, JNE, JL, JLE, JG, JGE, JB, JAE, JA, JBE, CALL} {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	if RET.IsBranch() {
		t.Error("ret is not an Imm-target branch")
	}
	if JMP.IsCondBranch() || CALL.IsCondBranch() {
		t.Error("jmp/call are not conditional")
	}
	if !JE.IsCondBranch() {
		t.Error("je is conditional")
	}
	for _, op := range []Op{JMP, RET, HALT, JNE} {
		if !op.EndsBlock() {
			t.Errorf("%s ends a basic block", op)
		}
	}
	if CALL.EndsBlock() {
		t.Error("call falls through and does not end a block")
	}
}

func TestDisasmATTOrder(t *testing.T) {
	got := Disasm(I(ADDSD, Xmm(0), Xmm(1)))
	if got != "addsd %xmm1, %xmm0" {
		t.Errorf("Disasm = %q, want %q", got, "addsd %xmm1, %xmm0")
	}
	got = Disasm(I(MULSD, Xmm(2), Mem(RAX, 16)))
	if got != "mulsd 0x10(%rax), %xmm2" {
		t.Errorf("Disasm = %q", got)
	}
	got = Disasm(I(JMP, Imm(0x1000)))
	if got != "jmp 0x1000" {
		t.Errorf("Disasm = %q", got)
	}
	got = Disasm(I(MOVRI, Gpr(RAX), Imm(5)))
	if got != "movri $0x5, %rax" {
		t.Errorf("Disasm = %q", got)
	}
	in := I(SUBSD, Xmm(0), Xmm(1))
	in.Addr = 0x6f45da
	if got := DisasmAddr(in); got != `0x6f45da "subsd %xmm1, %xmm0"` {
		t.Errorf("DisasmAddr = %q", got)
	}
}

func TestOpStringTotal(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op?") {
			t.Errorf("opcode %d has no name", op)
		}
	}
}

// TestClassificationTable walks every opcode and pins the whole
// floating-point classification — candidates in opcode order, single
// equivalents, and every per-opcode predicate — so the table's
// representation can change without its contents drifting.
func TestClassificationTable(t *testing.T) {
	type class struct {
		single                                   Op
		packed, dstIsSrc, writes, producer, cons bool
	}
	want := map[Op]class{
		ADDSD:     {single: ADDSS, dstIsSrc: true, writes: true, cons: true},
		SUBSD:     {single: SUBSS, dstIsSrc: true, writes: true, cons: true},
		MULSD:     {single: MULSS, dstIsSrc: true, writes: true, cons: true},
		DIVSD:     {single: DIVSS, dstIsSrc: true, writes: true, cons: true},
		MINSD:     {single: MINSS, dstIsSrc: true, writes: true, cons: true},
		MAXSD:     {single: MAXSS, dstIsSrc: true, writes: true, cons: true},
		SQRTSD:    {single: SQRTSS, writes: true, cons: true},
		UCOMISD:   {single: UCOMISS, dstIsSrc: true, cons: true},
		SINSD:     {single: SINSS, writes: true, cons: true},
		COSSD:     {single: COSSS, writes: true, cons: true},
		EXPSD:     {single: EXPSS, writes: true, cons: true},
		LOGSD:     {single: LOGSS, writes: true, cons: true},
		CVTSI2SD:  {single: CVTSI2SS, writes: true, producer: true},
		CVTTSD2SI: {single: CVTTSS2SI, writes: true, cons: true},
		ADDPD:     {single: ADDPS, packed: true, dstIsSrc: true, writes: true, cons: true},
		SUBPD:     {single: SUBPS, packed: true, dstIsSrc: true, writes: true, cons: true},
		MULPD:     {single: MULPS, packed: true, dstIsSrc: true, writes: true, cons: true},
		DIVPD:     {single: DIVPS, packed: true, dstIsSrc: true, writes: true, cons: true},
		SQRTPD:    {single: SQRTPS, packed: true, writes: true, cons: true},
	}
	var wantCands []Op
	for op := Op(0); op < opCount; op++ {
		w, cand := want[op]
		if cand {
			wantCands = append(wantCands, op)
		}
		s, ok := SingleEquivalent(op)
		got := class{single: s, packed: IsPacked(op), dstIsSrc: DstIsSource(op),
			writes: WritesDst(op), producer: IsProducer(op), cons: ConsumesFP(op)}
		if IsCandidate(op) != cand || ok != cand || got != w {
			t.Errorf("%s: candidate %v (single ok %v), class %+v; want candidate %v, class %+v",
				op, IsCandidate(op), ok, got, cand, w)
		}
	}
	if got := Candidates(); !slices.Equal(got, wantCands) {
		t.Errorf("Candidates() = %v, want %v", got, wantCands)
	}
	if IsCandidate(opCount) || IsPacked(opCount+7) {
		t.Error("opcodes past the table must classify as non-FP")
	}
}
