package vm

import "fpmix/internal/isa"

// Guarded flag-test diamonds: superinstructions (fuse.go) that absorb a
// conditional branch.
//
// The replacement snippet checks each input operand's high word for the
// replacement flag and converts the operand on one side of a conditional
// branch:
//
//	MOVQ r15,x; MOVRR r14,r15; SHRI r14,32; CMPI r14,flag; JE|JNE join
//	<arm: CVTSS2SD x,x, or CVTSD2SS x,x and the stamp>
//	join:
//
// The branch ends a basic block, so unguarded the arm and the join begin
// blocks of their own, and every checked operand of a wrapped site costs
// two or three dispatches. A guard compiles the whole diamond into one
// micro-op of the enclosing block: the flag test, then, when the branch
// falls through, the arm's micro-ops (the patterns fuse.go matches
// inside the arm, bounded by the join).
//
// The matcher (matchGuard) takes a flag test whose branch jumps forward
// over an arm of branch-free register instructions that never fault
// (armInstr) to a join inside the match window. Legality also depends on
// the whole stream, so compileProgramWith checks it per program
// (watchGuards, legalGuards): nothing but the guard's own branch may enter (head,
// join] — no other branch or call target, no pinned leader (the entry
// point, the donor pass's split slot bases) — so the arm and the join
// stop being leaders and the diamond lies inside one block. A RET, a
// snapshot restore or a stop inside it is served like any other
// mid-block address: per-step to the next leader.
//
// Accounting stays exact. The block batches its main path only (its
// steps and cost exclude every arm), and a guard whose arm runs adds the
// arm's steps and cycles itself and counts the arm's execution in
// Machine.armExec, at the slot Machine.armNext walks through the block's
// arms (compiled.arms) in order. The budget check before a block uses
// its full span, arms included, so a block that could cross the budget
// still finishes on the per-step tier. settlePartial and
// flushBlockCounts skip arm instructions in the block's own accounting;
// flushBlockCounts expands armExec over them instead. Guards are matched
// with the other superinstructions (matchRange), so the incremental
// linker caches them with their fragments and a warm assembly creates no
// closures. The shadow stream matches none: the shadow hook observes the
// flag test's MOVQ and the arm's conversions, so its blocks split each
// diamond at its branch as an unguarded stream does.

// guardArm is the index of a guard's first arm instruction: after the
// four-instruction flag test and its branch.
const guardArm = 5

// guardOp is a guard's decoded diamond.
type guardOp struct {
	test    *flagTestOp
	armOnEq bool      // the arm runs when the flag test sets eq (JNE)
	arm     []microOp // the arm, compiled up to the join
	steps   uint64    // the arm's instructions
	cost    uint64    // the arm's cycles
}

// armInstr reports whether in may sit in a guard's arm: the register
// forms the snippet's conversions and stamp use, none of which branches
// or faults.
func armInstr(in *isa.Instr) bool {
	switch in.Op {
	case isa.CVTSD2SS, isa.CVTSS2SD:
		return isXmmXmm(in)
	case isa.MOVQ, isa.MOVHQ:
		return isGprXmm(in) || isXmmGpr(in)
	case isa.MOVRR, isa.ANDR, isa.ORR:
		return isGprGpr(in)
	case isa.MOVRI, isa.SHRI:
		return isGprImm(in)
	}
	return false
}

// matchGuard matches a flag-test diamond at the start of rest, a match
// window starting with the snippet flag test, and returns its span up to
// the join (the join excluded), or 0: the flag test, JE or JNE, and a
// non-empty arm of armInstr instructions ending at the branch target,
// which must lie in rest.
func matchGuard(rest []isa.Instr) int {
	if len(rest) <= guardArm+1 {
		return 0
	}
	j := &rest[guardArm-1]
	if j.Op != isa.JE && j.Op != isa.JNE {
		return 0
	}
	for k := guardArm; k < len(rest); k++ {
		if rest[k].Addr == uint64(j.A.Imm) {
			if k == guardArm {
				return 0
			}
			return k
		}
		if !armInstr(&rest[k]) {
			return 0
		}
	}
	return 0
}

// newGuard decodes the diamond c (matchGuard's span), compiling its arm.
func newGuard(c []isa.Instr) *guardOp {
	g := &guardOp{test: newFlagTestOp(c), armOnEq: c[guardArm-1].Op == isa.JNE}
	arm := c[guardArm:]
	g.steps = uint64(len(arm))
	for i := range arm {
		g.cost += cost(&arm[i])
	}
	for j := 0; j < len(arm); {
		long, short := matchAt(window(arm, j), false)
		switch {
		case long.p != fuseNone:
			g.arm = append(g.arm, fuse(long.p, arm[j:j+long.n]))
			j += long.n
		case short.p != fuseNone:
			g.arm = append(g.arm, fuse(short.p, arm[j:j+short.n]))
			j += short.n
		default:
			g.arm = append(g.arm, compileOp(&arm[j]))
			j++
		}
	}
	return g
}

// op returns the guard's micro-op. Arm micro-ops never fail: armInstr
// admits no instruction that faults. It is not inlined, so its closures
// are compiled once, with flagged and account inlined into them.
//
//go:noinline
func (g *guardOp) op() microOp {
	if len(g.arm) == 1 {
		a := g.arm[0]
		return func(m *Machine) error {
			if g.flagged(m) == g.armOnEq {
				g.account(m)
				_ = a(m)
			}
			return nil
		}
	}
	return func(m *Machine) error {
		if g.flagged(m) == g.armOnEq {
			g.account(m)
			for _, a := range g.arm {
				_ = a(m)
			}
		}
		return nil
	}
}

// flagged runs the flag test, claims the guard's arm slot and reports
// the eq flag the test set.
func (g *guardOp) flagged(m *Machine) bool {
	g.test.run(m)
	m.armNext++
	return m.eq
}

// account settles one run of the arm in the slot flagged claimed.
func (g *guardOp) account(m *Machine) {
	m.armExec[m.armNext-1]++
	m.Steps += g.steps
	m.Cycles += g.cost
}

// armSpan is one guarded arm of a compiled stream: the n instructions from
// start, run as ops micro-ops.
type armSpan struct {
	start, n, ops int32
}

// watchGuards marks the span (head, join] of every guard candidate in
// fused with -1 in refs, zeroed scratch of one entry per instruction.
// The block builder then takes one off a marked entry for every branch or
// call targeting it and every pinned leader there (the entry point,
// extraLeaders), so legalGuards can tell the spans nothing else enters.
func watchGuards(fused []fusedOp, refs []int32) {
	for _, f := range fused {
		if f.guard != nil {
			for i := f.at + 1; i <= f.at+f.n; i++ {
				refs[i] = -1
			}
		}
	}
}

// legalGuards returns fused without the guard candidates not legal in lp,
// reusing fused's array. A guard is kept when
// its branch resolves to its join, refs (watchGuards) shows nothing but
// that branch entering (head, join], and no other superinstruction
// starting before its head reaches past it (so the block builder's walk
// lands on the head). The kept guards' arms and joins stop being leaders:
// only their own branches made them. refs is zeroed again, each span
// right after its check: an earlier candidate's span overlaps a later
// one's only with its join inside it, which already makes the later one
// illegal.
func legalGuards(lp *Program, fused []fusedOp, refs []int32, leader []bool) []fusedOp {
	w := 0            // fused[:w] is kept; entries move only after a drop
	reach := int32(0) // the furthest end of the other superinstructions so far
	for k := range fused {
		f := &fused[k]
		ok := f.guard == nil
		if ok {
			reach = max(reach, f.at+f.n)
		} else {
			join := f.at + f.n
			ok = reach <= f.at && lp.targets[f.at+guardArm-1] == join && refs[join] == -2
			for i := f.at + 1; ok && i < join; i++ {
				ok = refs[i] == -1
			}
			clear(refs[f.at+1 : join+1])
			if ok {
				leader[f.at+guardArm], leader[join] = false, false
			}
		}
		if ok {
			if w != k {
				fused[w] = *f
			}
			w++
		}
	}
	return fused[:w]
}
