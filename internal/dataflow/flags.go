package dataflow

import "fpmix/internal/isa"

// flagReachFor computes, for every instruction, which locations may hold a
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
//
// single restricts the sentinel sources to the candidates it marks
// (indexed by instruction); nil means every candidate may be single (the
// any-configuration abstraction above). Under a restricted source set,
// candidates outside it are double sites:
// their wrappers (or, when their inputs are proven clean, the bare
// originals) never stamp a source and always produce plain double
// results. Memory operands resolve through mem, the table resolveFlagMem
// returns: under the conservative model for Analyze, and under the
// precise one, which refines array accesses by the module's region
// table, for FlagAnalysis.
//
// A nil flagIn[i] is bottom (nothing flagged): a state is taken, from
// fs's growing slabs, only when flags first reach its instruction, so a
// query with a small singles set touches memory in proportion to the
// flagged subgraph rather than the whole module. The result lives in fs
// and stays valid until fs's next fixpoint, which reuses its storage.
func (a *analysis) flagReachFor(fs *flagState, single []bool, mem []memLoc) []bitset {
	n := len(a.instrs)
	fs.reset(n, (a.nLocs+63)/64)
	push := func(i int) {
		if !fs.inList[i] {
			fs.inList[i] = true
			fs.work = append(fs.work, i)
		}
	}
	// Seed only the instructions that can generate a flag from bottom
	// (in reverse so the LIFO pops in forward order): every other
	// transfer maps bottom to bottom, so it first needs to run only once
	// a predecessor pushes state into it. With a small singles set this
	// keeps the fixpoint proportional to the flagged subgraph rather
	// than the whole module.
	for i := n - 1; i >= 0; i-- {
		in := &a.instrs[i]
		switch {
		case isa.IsCandidate(in.Op):
			if single == nil || single[i] {
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
	flagIn, out := fs.flagIn, fs.out
	for len(fs.work) > 0 {
		i := fs.work[len(fs.work)-1]
		fs.work = fs.work[:len(fs.work)-1]
		fs.inList[i] = false

		if flagIn[i] == nil {
			clear(out)
		} else {
			out.copyFrom(flagIn[i])
		}
		a.flagStepFor(i, out, single, mem)
		if out.empty() {
			continue // bottom changes no successor
		}
		for _, s := range a.succs[i] {
			if flagIn[s] == nil {
				flagIn[s] = fs.state(s)
			}
			if flagIn[s].or(out) {
				push(int(s))
			}
		}
	}
	return flagIn
}

// flagState is the fixpoint scratch of flagReachFor. Between fixpoints
// inList is all false and work empty; flagIn holds the last result.
type flagState struct {
	flagIn []bitset
	inList []bool
	work   []int
	out    bitset
	// live lists the instructions whose flagIn the last fixpoint set.
	live []int32
	// slabs hold the states, handed out in order: slab k is the next
	// slab to carve, used the words already taken from it.
	slabs [][]uint64
	k     int
	used  int
	words int
}

// reset prepares fs for a fixpoint over n instructions with states of
// words words, dropping the previous result.
func (fs *flagState) reset(n, words int) {
	if len(fs.flagIn) != n {
		fs.flagIn = make([]bitset, n)
		fs.inList = make([]bool, n)
	} else {
		for _, i := range fs.live {
			fs.flagIn[i] = nil
		}
	}
	if fs.words != words {
		fs.slabs, fs.out = nil, newBitset(64*words)
	}
	fs.words, fs.k, fs.used, fs.live = words, 0, 0, fs.live[:0]
}

// state returns a cleared state for instruction i: 32 states per slab,
// doubling up to one per instruction.
func (fs *flagState) state(i int32) bitset {
	w := fs.words
	for fs.k < len(fs.slabs) && fs.used+w > len(fs.slabs[fs.k]) {
		fs.k, fs.used = fs.k+1, 0
	}
	if fs.k == len(fs.slabs) {
		chunk := 32
		if k := len(fs.slabs); k > 0 {
			chunk = min(2*len(fs.slabs[k-1])/w, max(len(fs.flagIn), 32))
		}
		fs.slabs = append(fs.slabs, make([]uint64, w*chunk))
	}
	b := bitset(fs.slabs[fs.k][fs.used : fs.used+w : fs.used+w])
	fs.used += w
	clear(b)
	fs.live = append(fs.live, i)
	return b
}

// flagStepFor applies instruction i's transfer function to state st in
// place, under a restricted single-candidate set (nil = any
// configuration), with memory operands resolved through mem. It takes
// only per-call state, so concurrent analyses over the same supergraph
// are safe.
func (a *analysis) flagStepFor(i int, st bitset, single []bool, mem []memLoc) {
	in := &a.instrs[i]

	if isa.IsCandidate(in.Op) {
		if single == nil || single[i] {
			a.flagCandidate(in, st)
		} else {
			a.flagDouble(in, st)
		}
		return
	}

	lane0 := func(op isa.Operand) int { return laneLoc(op.Reg, 0) }
	lane1 := func(op isa.Operand) int { return laneLoc(op.Reg, 1) }
	gpr := func(op isa.Operand) int { return locGPR + int(op.Reg) }
	// join of memory operand k's (0: A, 1: B) possible locations
	memGet := func(k int) bool {
		for _, l := range mem[2*i+k].locs {
			if st.get(l) {
				return true
			}
		}
		return false
	}
	// write v to memory operand k: strong update when the address
	// resolves to one slot, weak otherwise
	memSet := func(k int, v bool) {
		ml := &mem[2*i+k]
		for _, l := range ml.locs {
			if v {
				st.set(l)
			} else if ml.direct {
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
		assign(gpr(in.A), memGet(1))
	case isa.STORE:
		memSet(0, st.get(gpr(in.B)))
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
			assign(lane0(in.A), memGet(1))
			st.clear(lane1(in.A))
		default:
			memSet(0, st.get(lane0(in.B)))
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
			v := memGet(1)
			assign(lane0(in.A), v)
			assign(lane1(in.A), v)
		default:
			memSet(0, st.get(lane0(in.B)) || st.get(lane1(in.B)))
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
			v := memGet(1)
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
func (a *analysis) flagCandidate(in *isa.Instr, st bitset) {
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
func (a *analysis) flagDouble(in *isa.Instr, st bitset) {
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
// be flagged under the flagReachFor result flagIn over mem.
func (a *analysis) cleanInputs(i int, flagIn []bitset, mem []memLoc) bool {
	oc := a.cleanOperands(i, flagIn, mem)
	return oc.Src && oc.Dst
}

// cleanOperands splits cleanInputs per operand: Src is the B (source)
// operand, Dst the destination-read-as-source operand of dst-is-source
// ops. An operand the instruction does not read as floating-point input
// is trivially clean.
func (a *analysis) cleanOperands(i int, flagIn []bitset, mem []memLoc) OperandClean {
	in := &a.instrs[i]
	oc := OperandClean{Src: true, Dst: true}
	if !isa.ConsumesFP(in.Op) {
		// Producers (CVTSI2SD) read an integer register: trivially clean.
		return oc
	}
	st := flagIn[i]
	if st == nil {
		return oc // bottom: nothing reaches the instruction flagged
	}
	packed := isa.IsPacked(in.Op)
	check := func(op isa.Operand, k int) bool {
		switch op.Kind {
		case isa.KindXMM:
			if st.get(laneLoc(op.Reg, 0)) {
				return false
			}
			if packed && st.get(laneLoc(op.Reg, 1)) {
				return false
			}
		case isa.KindMem:
			for _, l := range mem[2*i+k].locs {
				if st.get(l) {
					return false
				}
			}
		}
		return true
	}
	oc.Src = check(in.B, 1)
	if isa.DstIsSource(in.Op) {
		oc.Dst = check(in.A, 0)
	}
	return oc
}

// memLoc is a memory operand resolved for the flag pass: the locations
// it may touch, and whether a store may strongly update them.
type memLoc struct {
	locs   []int
	direct bool
}

// resolveFlagMem resolves every memory operand of the module once, under
// the precise (memLocsPrec) or the conservative (memLocs) model, for the
// flag pass: entry 2i is instruction i's A operand, 2i+1 its B operand.
// The flag pass reads a 16-byte access (MOVAPD, the packed bitwise ops
// and packed candidates) as wide.
func (a *analysis) resolveFlagMem(precise bool) []memLoc {
	resolve := a.memLocs
	if precise {
		resolve = a.memLocsPrec
	}
	mem := make([]memLoc, 2*len(a.instrs))
	for i := range a.instrs {
		in := &a.instrs[i]
		wide := isa.IsPacked(in.Op)
		switch in.Op {
		case isa.MOVAPD, isa.ANDPD, isa.ORPD, isa.XORPD:
			wide = true
		}
		for k, op := range [2]*isa.Operand{&in.A, &in.B} {
			if op.Kind == isa.KindMem {
				locs, direct := resolve(op.Mem, wide)
				mem[2*i+k] = memLoc{locs: locs, direct: direct}
			}
		}
	}
	return mem
}
