package isa

// This file classifies floating-point instructions for the mixed-precision
// analysis. A "candidate" is a double-precision instruction whose precision
// can be lowered — the set Pd in the paper's configuration mapping
// p -> {single, double, ignore}. Pure bit-movement instructions (MOVSD,
// MOVAPD, MOVQ, ...) are not candidates: they copy the 64-bit payload
// including any replacement flag verbatim and perform no rounding.

// fpClass describes the floating-point role of an opcode.
type fpClass struct {
	candidate bool // double-precision op whose precision is configurable
	single    Op   // single-precision equivalent (valid if candidate)
	packed    bool // operates on both 64-bit lanes
	dstIsSrc  bool // destination is also an input (e.g. ADDSD)
	writes    bool // writes the destination operand
	producer  bool // produces a fresh FP value without consuming one (CVTSI2SD)
}

// fpTable is indexed by opcode; the zero entry classifies every opcode
// with no floating-point role. An array, not a map: the search consults
// it per candidate and per configuration, and the VM per packed lane.
var fpTable = [opCount]fpClass{
	ADDSD:   {candidate: true, single: ADDSS, dstIsSrc: true, writes: true},
	SUBSD:   {candidate: true, single: SUBSS, dstIsSrc: true, writes: true},
	MULSD:   {candidate: true, single: MULSS, dstIsSrc: true, writes: true},
	DIVSD:   {candidate: true, single: DIVSS, dstIsSrc: true, writes: true},
	MINSD:   {candidate: true, single: MINSS, dstIsSrc: true, writes: true},
	MAXSD:   {candidate: true, single: MAXSS, dstIsSrc: true, writes: true},
	SQRTSD:  {candidate: true, single: SQRTSS, writes: true},
	UCOMISD: {candidate: true, single: UCOMISS, dstIsSrc: true},
	SINSD:   {candidate: true, single: SINSS, writes: true},
	COSSD:   {candidate: true, single: COSSS, writes: true},
	EXPSD:   {candidate: true, single: EXPSS, writes: true},
	LOGSD:   {candidate: true, single: LOGSS, writes: true},

	CVTSI2SD:  {candidate: true, single: CVTSI2SS, writes: true, producer: true},
	CVTTSD2SI: {candidate: true, single: CVTTSS2SI, writes: true},

	ADDPD:  {candidate: true, single: ADDPS, packed: true, dstIsSrc: true, writes: true},
	SUBPD:  {candidate: true, single: SUBPS, packed: true, dstIsSrc: true, writes: true},
	MULPD:  {candidate: true, single: MULPS, packed: true, dstIsSrc: true, writes: true},
	DIVPD:  {candidate: true, single: DIVPS, packed: true, dstIsSrc: true, writes: true},
	SQRTPD: {candidate: true, single: SQRTPS, packed: true, writes: true},
}

// classOf returns op's classification; opcodes outside the table (an
// undecoded or corrupt Op) classify like opcodes with no FP role.
func classOf(op Op) fpClass {
	if op >= opCount {
		return fpClass{}
	}
	return fpTable[op]
}

// IsCandidate reports whether op is a double-precision instruction whose
// precision the framework can configure (the set Pd in the paper).
func IsCandidate(op Op) bool { return classOf(op).candidate }

// SingleEquivalent returns the single-precision opcode corresponding to the
// double-precision candidate op. It returns (0, false) if op is not a
// candidate.
func SingleEquivalent(op Op) (Op, bool) {
	c := classOf(op)
	if !c.candidate {
		return 0, false
	}
	return c.single, true
}

// IsPacked reports whether op operates on both 64-bit lanes of its XMM
// operands.
func IsPacked(op Op) bool { return classOf(op).packed }

// DstIsSource reports whether op's destination operand is also an input
// (two-operand ALU form such as ADDSD dst, src).
func DstIsSource(op Op) bool { return classOf(op).dstIsSrc }

// WritesDst reports whether op writes its destination operand.
func WritesDst(op Op) bool { return classOf(op).writes }

// IsProducer reports whether op produces a floating-point value without
// consuming one (integer-to-float conversion).
func IsProducer(op Op) bool { return classOf(op).producer }

// ConsumesFP reports whether op reads floating-point input operands that
// may carry a replacement flag and therefore need checking in a snippet.
func ConsumesFP(op Op) bool {
	c := classOf(op)
	return c.candidate && !c.producer
}

// Candidates returns every candidate opcode, for exhaustive tests.
func Candidates() []Op {
	var ops []Op
	for op := Op(0); op < opCount; op++ {
		if IsCandidate(op) {
			ops = append(ops, op)
		}
	}
	return ops
}
