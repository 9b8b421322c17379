package dataflow

import "fpmix/internal/isa"

// flagReach computes, for every instruction, which locations may hold a
// value carrying the 0x7FF4DEAD replacement sentinel immediately before
// it executes (forward may-analysis).
//
// The analysis runs under an "any configuration" abstraction: every
// candidate instruction may be configured single, in which case its
// replacement snippet downcasts its XMM register sources in place
// (stamping the sentinel into them) and stamps its XMM destination.
// Memory sources are promoted to a scratch register by the snippet and
// are never stamped in place. A location is clean only if it is clean
// under every configuration, which is exactly the condition for eliding
// flag-check prologues and skipping double wrappers.
//
// MPI receive and broadcast syscalls deposit raw incoming payloads
// (possibly flagged by the sender's snippets) at addresses held in
// registers, so they conservatively poison all of memory; allreduce
// writes back plain reduced doubles and is flag-transparent.
func (a *analysis) flagReach() []bitset {
	return a.flagReachFor(nil, false)
}

// flagReachFor is flagReach with the sentinel sources restricted to the
// given single-configured candidate addresses; nil means every candidate
// may be single (the any-configuration abstraction above). Under a
// restricted source set, candidates outside it are double sites: their
// wrappers (or, when their inputs are proven clean, the bare originals)
// never stamp a source and always produce plain double results. precise
// additionally resolves array accesses through the module's region
// table (memLocsPrec) instead of the everything blob.
//
// A nil flagIn[i] is bottom (nothing flagged): a state is allocated, from
// one growing slab, only when flags first reach its instruction, so a
// query with a small singles set allocates in proportion to the flagged
// subgraph rather than the whole module.
func (a *analysis) flagReachFor(singles map[uint64]bool, precise bool) []bitset {
	n := len(a.instrs)
	flagIn := make([]bitset, n)
	words := (a.nLocs + 63) / 64
	var slab []uint64
	chunk := 32 // states per slab, doubling up to n
	alloc := func() bitset {
		if len(slab) < words {
			slab = make([]uint64, words*chunk)
			chunk = min(2*chunk, max(n, 32))
		}
		b := slab[:words:words]
		slab = slab[words:]
		return b
	}
	inList := make([]bool, n)
	var work []int
	push := func(i int) {
		if !inList[i] {
			inList[i] = true
			work = append(work, i)
		}
	}
	// Seed only the instructions that can generate a flag from bottom
	// (in reverse so the LIFO pops in forward order): every other
	// transfer maps bottom to bottom, so it first needs to run only once
	// a predecessor pushes state into it. With a small singles set this
	// keeps the fixpoint proportional to the flagged subgraph rather
	// than the whole module.
	for i := n - 1; i >= 0; i-- {
		in := a.instrs[i]
		switch {
		case isa.IsCandidate(in.Op):
			if singles == nil || singles[in.Addr] {
				push(i)
			}
		case in.Op == isa.MOVRI:
			if uint32(uint64(in.B.Imm)>>32) == isa.ReplacedFlag {
				push(i)
			}
		case in.Op == isa.SYSCALL:
			if in.A.Imm == isa.SysMPIRecvF64 || in.A.Imm == isa.SysMPIBcastF64 {
				push(i)
			}
		}
	}
	out := newBitset(a.nLocs)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inList[i] = false

		if flagIn[i] == nil {
			clear(out)
		} else {
			out.copyFrom(flagIn[i])
		}
		a.flagStepFor(i, out, singles, precise)
		if out.empty() {
			continue // bottom changes no successor
		}
		for _, s := range a.succs[i] {
			if flagIn[s] == nil {
				flagIn[s] = alloc()
			}
			if flagIn[s].or(out) {
				push(int(s))
			}
		}
	}
	return flagIn
}

// flagStep applies instruction i's transfer function to state in place.
func (a *analysis) flagStep(i int, st bitset) {
	a.flagStepFor(i, st, nil, false)
}

// flagStepFor is flagStep under a restricted single-candidate set (nil =
// any configuration) and an optional precise memory model. It takes only
// per-call state, so concurrent analyses over the same supergraph are
// safe.
func (a *analysis) flagStepFor(i int, st bitset, singles map[uint64]bool, precise bool) {
	in := a.instrs[i]

	if isa.IsCandidate(in.Op) {
		if singles == nil || singles[in.Addr] {
			a.flagCandidate(in, st)
		} else {
			a.flagDouble(in, st)
		}
		return
	}

	lane0 := func(op isa.Operand) int { return laneLoc(op.Reg, 0) }
	lane1 := func(op isa.Operand) int { return laneLoc(op.Reg, 1) }
	gpr := func(op isa.Operand) int { return locGPR + int(op.Reg) }
	resolve := a.memLocs
	if precise {
		resolve = a.memLocsPrec
	}
	// join of a memory operand's possible locations
	memGet := func(m isa.MemRef, wide bool) bool {
		locs, _ := resolve(m, wide)
		for _, l := range locs {
			if st.get(l) {
				return true
			}
		}
		return false
	}
	// write v to a memory operand: strong update when the address
	// resolves to one slot, weak otherwise
	memSet := func(m isa.MemRef, wide, v bool) {
		locs, direct := resolve(m, wide)
		for _, l := range locs {
			if v {
				st.set(l)
			} else if direct {
				st.clear(l)
			}
		}
	}
	assign := func(l int, v bool) {
		if v {
			st.set(l)
		} else {
			st.clear(l)
		}
	}

	switch in.Op {
	case isa.MOVRI:
		// Immediates are clean — except one that itself carries the
		// sentinel in its high word. Our own single-precision snippets
		// construct replaced values exactly this way (movri + orr), so
		// tracking it keeps re-instrumentation of an already-instrumented
		// binary sound.
		if uint32(uint64(in.B.Imm)>>32) == isa.ReplacedFlag {
			st.set(gpr(in.A))
		} else {
			st.clear(gpr(in.A))
		}
	case isa.MOVRR:
		assign(gpr(in.A), st.get(gpr(in.B)))
	case isa.LOAD:
		assign(gpr(in.A), memGet(in.B.Mem, false))
	case isa.STORE:
		memSet(in.A.Mem, false, st.get(gpr(in.B)))
	case isa.LEA:
		st.clear(gpr(in.A)) // addresses are clean

	case isa.ADDR, isa.SUBR, isa.IMULR, isa.ANDR, isa.ORR, isa.XORR, isa.IDIVR:
		// Integer arithmetic could in principle reconstruct the bit
		// pattern; stay conservative and join the inputs.
		assign(gpr(in.A), st.get(gpr(in.A)) || st.get(gpr(in.B)))
	case isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI:
		// keep current state

	case isa.PUSH:
		if st.get(gpr(in.A)) {
			st.set(a.stackLoc())
		}
	case isa.POP:
		assign(gpr(in.A), st.get(a.stackLoc()))
	case isa.PUSHX:
		if st.get(lane0(in.A)) || st.get(lane1(in.A)) {
			st.set(a.stackLoc())
		}
	case isa.POPX:
		assign(lane0(in.A), st.get(a.stackLoc()))
		assign(lane1(in.A), st.get(a.stackLoc()))

	case isa.MOVSD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			assign(lane0(in.A), st.get(lane0(in.B)))
		case in.A.Kind == isa.KindXMM: // load zeroes the upper lane
			assign(lane0(in.A), memGet(in.B.Mem, false))
			st.clear(lane1(in.A))
		default:
			memSet(in.A.Mem, false, st.get(lane0(in.B)))
		}
	case isa.MOVSS:
		// 32-bit moves never transport the sentinel (it lives in the
		// high half of a 64-bit location).
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			// dst's high bits (and flag state) are preserved
		case in.A.Kind == isa.KindXMM:
			st.clear(lane0(in.A)) // bits 32..127 zeroed
			st.clear(lane1(in.A))
		default:
			// A 4-byte store touches only the payload half of an
			// aligned slot; flag state of the slot is unchanged.
		}
	case isa.MOVAPD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			assign(lane0(in.A), st.get(lane0(in.B)))
			assign(lane1(in.A), st.get(lane1(in.B)))
		case in.A.Kind == isa.KindXMM:
			v := memGet(in.B.Mem, true)
			assign(lane0(in.A), v)
			assign(lane1(in.A), v)
		default:
			memSet(in.A.Mem, true, st.get(lane0(in.B)) || st.get(lane1(in.B)))
		}
	case isa.MOVQ:
		if in.A.Kind == isa.KindXMM {
			assign(lane0(in.A), st.get(gpr(in.B)))
		} else {
			assign(gpr(in.A), st.get(lane0(in.B)))
		}
	case isa.MOVHQ:
		if in.A.Kind == isa.KindXMM {
			assign(lane1(in.A), st.get(gpr(in.B)))
		} else {
			assign(gpr(in.A), st.get(lane1(in.B)))
		}

	case isa.ANDPD, isa.ORPD, isa.XORPD:
		if in.Op == isa.XORPD && in.B.Kind == isa.KindXMM && in.A.Reg == in.B.Reg {
			// zeroing idiom
			st.clear(lane0(in.A))
			st.clear(lane1(in.A))
			break
		}
		var b0, b1 bool
		if in.B.Kind == isa.KindXMM {
			b0, b1 = st.get(lane0(in.B)), st.get(lane1(in.B))
		} else {
			v := memGet(in.B.Mem, true)
			b0, b1 = v, v
		}
		assign(lane0(in.A), st.get(lane0(in.A)) || b0)
		assign(lane1(in.A), st.get(lane1(in.A)) || b1)

	case isa.CVTSD2SS, isa.CVTSI2SS:
		// writes the low 32 bits of dst lane 0 only: flag state of the
		// destination is preserved
	case isa.CVTSS2SD:
		// produces an ordinary double (crafted-NaN payloads excluded by
		// the scheme's standing assumption)
		st.clear(lane0(in.A))
	case isa.CVTTSS2SI:
		st.clear(gpr(in.A))

	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS,
		isa.SQRTSS, isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS:
		// single-precision results land in the low 32 bits; the flag
		// half of the destination is preserved
	case isa.UCOMISS:
		// flags only

	case isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS, isa.SQRTPS:
		// packed-single results are float32 data in all four words
		st.clear(lane0(in.A))
		st.clear(lane1(in.A))

	case isa.SYSCALL:
		switch in.A.Imm {
		case isa.SysMPIRank, isa.SysMPISize:
			st.clear(locGPR + int(isa.RAX))
		case isa.SysMPIRecvF64, isa.SysMPIBcastF64:
			// Raw incoming payloads may be flagged; the destination
			// buffer address is in a register, so poison all of memory.
			for s := nRegLocs; s < a.nLocs; s++ {
				st.set(s)
			}
		case isa.SysMPIAllreduce:
			// writes back plain reduced doubles: flag-transparent
		}
	}
}

// flagCandidate applies the any-configuration transfer of a candidate:
// XMM register sources may be downcast-stamped in place, and the XMM
// destination may be stamped; a GPR destination (CVTTSD2SI) receives a
// plain integer. Memory sources are promoted by the snippet, never
// stamped in place.
func (a *analysis) flagCandidate(in isa.Instr, st bitset) {
	packed := isa.IsPacked(in.Op)
	mark := func(op isa.Operand) {
		if op.Kind != isa.KindXMM {
			return
		}
		st.set(laneLoc(op.Reg, 0))
		if packed {
			st.set(laneLoc(op.Reg, 1))
		}
	}
	if isa.ConsumesFP(in.Op) {
		mark(in.B)
		if isa.DstIsSource(in.Op) {
			mark(in.A)
		}
	}
	if isa.WritesDst(in.Op) {
		switch in.A.Kind {
		case isa.KindXMM:
			mark(in.A)
		case isa.KindGPR:
			st.clear(locGPR + int(in.A.Reg))
		}
	}
}

// flagDouble applies the transfer of a candidate held at double
// precision: neither the wrapper snippet nor the bare original stamps a
// source in place, and the result — an ordinary double (wrappers upcast
// any flagged input first) or a plain integer — is clean. Memory
// destinations are left untouched, conservatively preserving any prior
// maybe-flagged state.
func (a *analysis) flagDouble(in isa.Instr, st bitset) {
	if !isa.WritesDst(in.Op) {
		return
	}
	switch in.A.Kind {
	case isa.KindXMM:
		st.clear(laneLoc(in.A.Reg, 0))
		if isa.IsPacked(in.Op) {
			st.clear(laneLoc(in.A.Reg, 1))
		}
	case isa.KindGPR:
		st.clear(locGPR + int(in.A.Reg))
	}
}

// cleanInputs reports whether no floating-point input of candidate i can
// be flagged under any configuration.
func (a *analysis) cleanInputs(i int, flagIn []bitset) bool {
	return a.cleanInputsPrec(i, flagIn, false)
}

// cleanInputsPrec is cleanInputs with the memory model matching the
// flagReachFor call that produced flagIn.
func (a *analysis) cleanInputsPrec(i int, flagIn []bitset, precise bool) bool {
	oc := a.cleanOperandsPrec(i, flagIn, precise)
	return oc.Src && oc.Dst
}

// cleanOperandsPrec splits cleanInputsPrec per operand: Src is the B
// (source) operand, Dst the destination-read-as-source operand of
// dst-is-source ops. An operand the instruction does not read as
// floating-point input is trivially clean.
func (a *analysis) cleanOperandsPrec(i int, flagIn []bitset, precise bool) OperandClean {
	in := a.instrs[i]
	oc := OperandClean{Src: true, Dst: true}
	if !isa.ConsumesFP(in.Op) {
		// Producers (CVTSI2SD) read an integer register: trivially clean.
		return oc
	}
	resolve := a.memLocs
	if precise {
		resolve = a.memLocsPrec
	}
	st := flagIn[i]
	if st == nil {
		return oc // bottom: nothing reaches the instruction flagged
	}
	packed := isa.IsPacked(in.Op)
	check := func(op isa.Operand) bool {
		switch op.Kind {
		case isa.KindXMM:
			if st.get(laneLoc(op.Reg, 0)) {
				return false
			}
			if packed && st.get(laneLoc(op.Reg, 1)) {
				return false
			}
		case isa.KindMem:
			locs, _ := resolve(op.Mem, packed)
			for _, l := range locs {
				if st.get(l) {
					return false
				}
			}
		}
		return true
	}
	oc.Src = check(in.B)
	if isa.DstIsSource(in.Op) {
		oc.Dst = check(in.A)
	}
	return oc
}
