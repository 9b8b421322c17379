package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"fpmix/internal/isa"
)

// The compiled direct-threaded execution engine.
//
// Link translates the instruction stream once into an array of basic
// blocks whose straight-line bodies are pre-decoded closures (operands
// resolved to register numbers, immediates and memory references at
// compile time) and whose terminators hold direct pointers to their
// successor blocks. Run dispatches block to block through those pointers
// — no per-step opcode switch, no per-step budget check, no program
// counter maintenance in the steady state (pcIdx is materialized only at
// faults, HALT and tier transitions), and step/cycle/count accounting
// batched per block instead of per instruction. Per-instruction counts
// are reconstructed exactly from per-block execution counters when the
// run ends, because every instruction of a basic block's main path
// executes the same number of times. The snippet's flag-test diamonds
// are the exception the block builder makes on purpose: a guard
// (guard.go) compiles the flag test, its branch and the conversion arm
// into one micro-op inside the enclosing block, so the arm and the join
// begin no blocks, and the arm keeps a counter and settles its own
// steps and cycles when it runs.
//
// The engine is a pure speedup: a compiled run produces a machine
// byte-identical to the per-step interpreter — same Steps, Cycles,
// Counts, memory image, outputs and fault kind+PC (the randomized
// differential suite and the kernel identity tests enforce this). The
// per-step hooks that need every instruction (armed injected traps,
// TrapUnreplaced) route the run to the instrumented per-step tier
// instead, so they keep exact per-step semantics without costing the
// fast path anything. The other hooks stay compiled. Shadow collection
// runs a second block stream of the same program whose observed
// instructions call the hook first (shadowStream). RunContext
// cancellation is polled between blocks. Breakpoint stops, when every
// stop address begins a basic block, are served from the dispatch loop
// itself, so the fork-point donor pass — one run with a stop at every
// replacement slot, assembled with each of those slot bases split into a
// block leader — executes at compiled speed. Every other assembly keeps
// Link's partition; a forked sibling restored at a slot base inside a
// block steps to the next leader, like a RET into a block body.

// microOp is one pre-decoded straight-line instruction. It never
// transfers control; control flow lives in the block terminator.
type microOp func(m *Machine) error

// termKind classifies how a basic block transfers control.
type termKind uint8

const (
	termFall    termKind = iota // fall through into the next block
	termFallOff                 // run off the end of the code segment (faults)
	termJump                    // unconditional jump
	termCond                    // conditional branch
	termCall                    // call: push return address, jump
	termRet                     // return: pop target address
	termHalt                    // HALT
)

// block is one compiled basic block: its whole straight-line body runs
// before accounting settles once.
type block struct {
	start int32 // instruction index of the first instruction
	n     int32 // total instructions in the block (body + terminator)
	id    int32 // index in compiled.blocks (the blkExec slot)
	// steps and cost are the instruction count and summed cycle cost of
	// the main path: all n instructions but the guarded arms, which
	// account for themselves when they run (guard.go).
	steps uint64
	cost  uint64
	// arm0 and arms locate the block's guarded arms, in order, in
	// compiled.arms.
	arm0, arms int32
	body       []microOp // pre-decoded straight-line micro-ops, in order
	term       termKind
	in         *isa.Instr // terminator instruction; nil only for termFall
	// condOp is the branch opcode a termCond block evaluates.
	condOp isa.Op
	// fold, when set, is the termCond block's final compare folded with
	// its branch (fuseFold): it runs after the body, in place of the
	// compare's micro-op and branchTaken.
	fold foldOp
	// takenBlk is the successor when the terminator's branch/call is
	// taken; nil when the target address is not an instruction (following
	// it then faults, exactly as the per-step interpreter does).
	takenBlk *block
	// fallBlk is the fall-through successor (termFall always; termCond
	// when not taken); nil when falling through runs off the code
	// segment.
	fallBlk   *block
	takenAddr uint64 // unresolved target address, for the fault message
	ret       uint64 // termCall: the return address pushed
}

// compiled is the direct-threaded form of a linked program. Like the
// Program that owns it, it is immutable after Link (or an assembly) and
// shared by every machine executing the program.
type compiled struct {
	blocks []block
	// blockOf maps an instruction index to the index of the block
	// containing it (meaningful for dispatch only at leaders).
	blockOf []int32
	// leader marks instruction indices that begin a basic block.
	leader []bool
	// fused lists the program's pattern superinstructions and legal
	// guards in index order, kept to map a faulting body micro-op back to
	// its instructions.
	fused []fusedOp
	// arms lists the guarded arms of every block, in index order; arm k's
	// executions count in Machine.armExec[k].
	arms []armSpan
	// bodies is the slab every block's body is carved from, and takenIdx
	// the builder's scratch; both are kept for a rebuild to reuse.
	bodies   []microOp
	takenIdx []int32
}

// bodyEnd is the index one past b's last body instruction: the
// terminator, or the end of the block when it falls through. It bounds
// the superinstructions the block builder takes; a folded compare is one
// of them, so it ends the body at its own first instruction.
func (b *block) bodyEnd() int32 {
	if b.term == termFall || b.term == termFallOff {
		return b.start + b.n
	}
	return b.start + b.n - 1
}

// opStart returns the index of the first instruction body[j] of b
// executes, replaying the block builder's walk over c.fused. Only fault
// paths need it.
func (c *compiled) opStart(b *block, j int32) int32 {
	i := b.start
	if len(c.fused) == 0 {
		return i + j
	}
	fc := fuseCursor(c.fused[sort.Search(len(c.fused), func(k int) bool { return c.fused[k].at >= b.start }):])
	for ; j > 0; j-- {
		if f, ok := fc.take(i, b.bodyEnd()); ok {
			i += f.n
		} else {
			i++
		}
	}
	return i
}

// endsBlock reports whether op terminates a basic block in the compiled
// stream: control transfers plus CALL (RET must resume at the call's
// continuation, so the continuation needs to be a block boundary).
func endsBlock(op isa.Op) bool {
	return op.IsBranch() || op == isa.RET || op == isa.HALT
}

// compileProgram builds the direct-threaded block stream for lp. It
// requires lp.targets and lp.costs to be populated.
func compileProgram(lp *Program) *compiled {
	ops, fused := compileFrag(lp.instrs, false)
	return compileProgramWith(nil, lp, ops, fused, nil)
}

// compileProgramWith is compileProgram over pre-compiled micro-ops: ops[i]
// is instruction i's micro-op and fused the pattern superinstructions and
// guard candidates in index order. The incremental linker passes the
// concatenation of its immutable fragment caches (valid for any assembly
// because instruction content and address are stable), so re-assembling a
// configuration skips closure creation entirely. fused is the caller's to
// give away: the guards not legal in lp are dropped from it in place
// (legalGuards), and each legal guard's arm and join stop being leaders,
// so the whole diamond compiles into one micro-op of its block. A
// superinstruction is taken only when its whole span lies inside the block
// body, so no fused op ever spans a leader.
//
// c is the stream to rebuild: nil allocates a new one, and the incremental
// linker passes its buffer's previous stream, whose leader, blockOf,
// block, body and arm arrays are refilled in place.
//
// extraLeaders lists additional instruction indices to begin basic blocks
// at. The incremental linker passes the slot bases of the sites its
// caller splits — only the donor pass, which arms a breakpoint stop at
// each — so those stops land on block boundaries and the run stays on
// the compiled tier (see runCompiled). Each extra split costs one more
// dispatch every time a run crosses it, so every other assembly passes
// none. The shadow stream passes its program's own leaders.
func compileProgramWith(c *compiled, lp *Program, ops []microOp, fused []fusedOp, extraLeaders []int32) *compiled {
	instrs := lp.instrs
	n := len(instrs)
	if c == nil {
		c = new(compiled)
	}
	c.leader = grow(c.leader, n)
	clear(c.leader)
	c.blockOf = grow(c.blockOf, n)
	clear(c.blockOf)
	c.fused = fused
	c.blocks = c.blocks[:0]
	c.arms = c.arms[:0]
	if n == 0 {
		return c
	}
	// Leaders. refs, blockOf until the blocks exist, watches the guard
	// candidates' spans: each target or pinned leader landing in one
	// takes one off (watchGuards, legalGuards).
	refs := c.blockOf
	watchGuards(fused, refs)
	lead := func(i int32) {
		c.leader[i] = true
		if refs[i] < 0 {
			refs[i]--
		}
	}
	lead(lp.entry)
	for _, i := range extraLeaders {
		if i >= 0 && int(i) < n {
			lead(i)
		}
	}
	for i := range instrs {
		if !endsBlock(instrs[i].Op) {
			continue
		}
		if i+1 < n {
			c.leader[i+1] = true
		}
		if t := lp.targets[i]; t >= 0 {
			lead(t)
		}
	}
	fused = legalGuards(lp, fused, refs, c.leader)
	c.fused = fused
	// Every block's body is carved out of one slab (a body never holds
	// more micro-ops than instructions, so it never moves). Blocks are
	// built in index order, so one cursor walks the superinstructions.
	bodies := slices.Grow(c.bodies[:0], n)
	fc, gc := fuseCursor(fused), fuseCursor(fused)
	// takenIdx[id] remembers each block's taken-target instruction index
	// until every block exists and pointers can be resolved.
	takenIdx := c.takenIdx[:0]
	for start := 0; start < n; start++ {
		if !c.leader[start] {
			// Instructions not reachable by fall-through from any leader
			// (a gap before the entry point) execute on the per-step
			// tier if ever reached dynamically.
			continue
		}
		end := start
		for {
			if endsBlock(instrs[end].Op) {
				g, ok := gc.guardAt(int32(end - (guardArm - 1)))
				if !ok {
					end++
					break
				}
				end = int(g.at + g.n) // the guard absorbs its branch
			} else {
				end++
			}
			if end >= n || c.leader[end] {
				break
			}
		}
		b := block{start: int32(start), n: int32(end - start), id: int32(len(c.blocks)), arm0: int32(len(c.arms))}
		b.steps = uint64(b.n)
		taken := int32(-1)
		for i := start; i < end; i++ {
			b.cost += lp.costs[i]
			c.blockOf[i] = b.id
		}
		last := &instrs[end-1]
		bodyEnd := end - 1
		switch {
		case last.Op == isa.HALT:
			b.term, b.in = termHalt, last
		case last.Op == isa.RET:
			b.term, b.in = termRet, last
		case last.Op == isa.CALL:
			b.term, b.in = termCall, last
			taken = lp.targets[end-1]
			b.takenAddr = uint64(last.A.Imm)
			if end < n {
				b.ret = instrs[end].Addr
			} else {
				b.ret = last.Addr + uint64(isa.EncodedSize(*last))
			}
		case last.Op == isa.JMP:
			b.term, b.in = termJump, last
			taken = lp.targets[end-1]
			b.takenAddr = uint64(last.A.Imm)
		case last.Op.IsCondBranch():
			b.term, b.in, b.condOp = termCond, last, last.Op
			taken = lp.targets[end-1]
			b.takenAddr = uint64(last.A.Imm)
		default:
			// Straight-line block ending at the next leader or at the end
			// of the stream; the last instruction belongs to the body.
			bodyEnd = end
			if end >= n {
				b.term, b.in = termFallOff, last
			} else {
				b.term = termFall
			}
		}
		blo := len(bodies)
		for i := int32(start); i < int32(bodyEnd); {
			if f, ok := fc.take(i, int32(bodyEnd)); ok {
				if f.fold != nil && i+f.n == int32(bodyEnd) && b.term == termCond {
					b.fold = f.fold
					break
				}
				if g := f.guard; g != nil {
					c.arms = append(c.arms, armSpan{start: f.at + guardArm, n: f.n - guardArm, ops: int32(len(g.arm))})
					b.steps -= g.steps
					b.cost -= g.cost
				}
				bodies = append(bodies, f.op)
				i += f.n
			} else {
				bodies = append(bodies, ops[i])
				i++
			}
		}
		b.body = bodies[blo:len(bodies):len(bodies)]
		b.arms = int32(len(c.arms)) - b.arm0
		c.blocks = append(c.blocks, b)
		takenIdx = append(takenIdx, taken)
	}
	c.bodies, c.takenIdx = bodies, takenIdx
	// Second pass: resolve successor pointers now that the block array is
	// stable. Branch/call targets and fall-through continuations are
	// always leaders by construction, so blockOf addresses them exactly.
	for i := range c.blocks {
		b := &c.blocks[i]
		if t := takenIdx[i]; t >= 0 {
			b.takenBlk = &c.blocks[c.blockOf[t]]
		}
		if b.term == termFall || b.term == termCond {
			if next := int(b.start + b.n); next < n {
				b.fallBlk = &c.blocks[c.blockOf[next]]
			}
		}
	}
	return c
}

// compiledTier reports whether the next Run may take the compiled fast
// path: a compiled program is bound, NoCompile is off, and no per-step
// hook — an armed injected trap or unreplaced-input trapping — needs
// per-instruction observation. Three other hooks stay on the compiled
// tier. Shadow collection runs the program's shadow stream, whose
// micro-ops call the hook themselves (see shadowStream). runCompiled
// serves breakpoint stops whose addresses all begin basic blocks from
// the block-dispatch loop, and falls back per-step only for a mid-block
// stop. RunContext cancellation is polled between blocks; a cancelled
// run's partial state never feeds a verdict, so the coarser stop
// granularity is unobservable.
func (m *Machine) compiledTier() bool {
	return !m.NoCompile && m.lp != nil && m.lp.compiled != nil &&
		m.injectAt == 0 && !m.TrapUnreplaced
}

// runCompiled executes block to block until HALT, a fault, or budget
// exhaustion, producing exactly the machine the per-step tier would.
func (m *Machine) runCompiled(max uint64) error {
	c := m.lp.compiled
	if m.shadow != nil {
		c = m.lp.shadowStream()
	}
	if len(m.blkExec) != len(c.blocks) {
		m.blkExec = grow(m.blkExec, len(c.blocks))
		clear(m.blkExec)
	}
	if len(m.armExec) != len(c.arms) {
		m.armExec = grow(m.armExec, len(c.arms))
		clear(m.armExec)
	}
	defer m.flushBlockCounts(c, m.Steps)
	// An armed stop set is served at block dispatch when every stop
	// address that is an instruction begins a block (the donor pass's
	// assembly splits each stopped slot base for exactly this). The check
	// runs before the block executes, so the Stopped machine state is
	// bit-identical to the per-step tier's, which checks before each
	// instruction. A stop inside a block needs per-instruction
	// observation: fall back.
	var stopBlk []bool
	if m.stops != nil {
		stopBlk = make([]bool, len(c.blocks))
		for addr := range m.stops {
			idx, ok := m.lp.idxOf(addr)
			if !ok {
				continue // not an instruction: neither tier ever stops there
			}
			if !c.leader[idx] {
				return m.runInstrumented(max)
			}
			stopBlk[c.blockOf[idx]] = true
		}
	}
outer:
	for !m.halted {
		if int(m.pcIdx) >= len(m.instrs) || m.pcIdx < 0 {
			// Budget before bad-PC, matching the per-step loop's order.
			if m.Steps >= max {
				return &Fault{Kind: FaultMaxSteps, PC: m.PC(), Detail: fmt.Sprintf("%d steps", m.Steps)}
			}
			return &Fault{Kind: FaultBadPC, PC: 0, Detail: "fell off code segment"}
		}
		// Mid-block entry (partial Step()s before Run, or a RET into the
		// middle of a block): single-step to the next block boundary.
		for !c.leader[m.pcIdx] {
			if m.Steps >= max {
				return &Fault{Kind: FaultMaxSteps, PC: m.PC(), Detail: fmt.Sprintf("%d steps", m.Steps)}
			}
			if err := m.Step(); err != nil {
				return err
			}
			if m.halted {
				return nil
			}
		}
		cur := &c.blocks[c.blockOf[m.pcIdx]]
		// Steady state: block to block through resolved successor
		// pointers; pcIdx is materialized only on exits.
		for {
			if m.cancelled != nil && m.cancelled.Load() {
				// Between blocks the machine state is bit-identical to the
				// per-step tier's before the same instruction, so stopping
				// here matches runInstrumented's check exactly — only the
				// polling stride is coarser (one block, not one step).
				m.pcIdx = cur.start
				return &Fault{Kind: FaultCancelled, PC: m.PC(), Detail: fmt.Sprintf("after %d steps", m.Steps)}
			}
			if stopBlk != nil && stopBlk[cur.id] {
				// Checked before the budget, matching the per-step loop's
				// order; stops live only at block starts here, so the
				// dispatch check observes exactly the addresses stopCheck
				// would.
				m.pcIdx = cur.start
				return &Stopped{PC: m.instrs[cur.start].Addr, Steps: m.Steps}
			}
			if m.Steps+uint64(cur.n) > max {
				// The budget expires inside this block (or already has):
				// finish on the per-step tier, which faults at the exact
				// instruction the interpreter would.
				m.pcIdx = cur.start
				return m.runInstrumented(max)
			}
			if len(cur.body) > 0 { // a folded compare may be the whole block
				m.armNext = cur.arm0
				if j, err := m.runBody(cur.body); err != nil {
					m.settlePartial(c, cur, j)
					return err
				}
			}
			// The whole block executed: settle its main path's
			// accounting in one batch (the guards settled their arms).
			// The terminator below is part of the block — if it faults,
			// it has executed (and is counted), matching the per-step
			// tier.
			m.Steps += cur.steps
			m.Cycles += cur.cost
			m.blkExec[cur.id]++
			switch cur.term {
			case termFall:
				cur = cur.fallBlk
			case termHalt:
				m.halted = true
				m.pcIdx = cur.start + cur.n - 1
				return nil
			case termCond:
				var taken bool
				if cur.fold == nil {
					taken = m.branchTaken(cur.condOp)
				} else {
					var err error
					if taken, err = cur.fold(m); err != nil {
						// The folded compare faulted, so the block did not
						// complete: take back its batched accounting and
						// settle the instructions that ran.
						m.Steps -= cur.steps
						m.Cycles -= cur.cost
						m.blkExec[cur.id]--
						m.settlePartial(c, cur, int32(len(cur.body)))
						return err
					}
				}
				if taken {
					if cur.takenBlk == nil {
						m.pcIdx = cur.start + cur.n - 1
						return m.fault(FaultBadPC, cur.in, fmt.Sprintf("target %#x", cur.takenAddr))
					}
					cur = cur.takenBlk
				} else {
					if cur.fallBlk == nil {
						m.pcIdx = cur.start + cur.n
						return &Fault{Kind: FaultBadPC, PC: cur.in.Addr, Op: cur.in.Op, Detail: "fell off code segment"}
					}
					cur = cur.fallBlk
				}
			case termJump:
				if cur.takenBlk == nil {
					m.pcIdx = cur.start + cur.n - 1
					return m.fault(FaultBadPC, cur.in, fmt.Sprintf("target %#x", cur.takenAddr))
				}
				cur = cur.takenBlk
			case termCall:
				if m.shadow != nil {
					m.pcIdx = cur.start + cur.n - 1
					m.shadowStep(cur.in)
				}
				if err := m.push64(cur.in, cur.ret); err != nil {
					m.pcIdx = cur.start + cur.n - 1
					return err
				}
				if cur.takenBlk == nil {
					m.pcIdx = cur.start + cur.n - 1
					return m.fault(FaultBadPC, cur.in, fmt.Sprintf("target %#x", cur.takenAddr))
				}
				cur = cur.takenBlk
			case termRet:
				v, err := m.pop64(cur.in)
				if err != nil {
					m.pcIdx = cur.start + cur.n - 1
					return err
				}
				idx, ok := m.lp.idxOf(v)
				if !ok {
					m.pcIdx = cur.start + cur.n - 1
					return m.fault(FaultBadPC, cur.in, fmt.Sprintf("target %#x", v))
				}
				if !c.leader[idx] {
					// A return into the middle of a block: resume on the
					// stepping path until the next boundary.
					m.pcIdx = idx
					continue outer
				}
				cur = &c.blocks[c.blockOf[idx]]
			case termFallOff:
				m.pcIdx = cur.start + cur.n
				return &Fault{Kind: FaultBadPC, PC: cur.in.Addr, Op: cur.in.Op, Detail: "fell off code segment"}
			}
		}
	}
	return nil
}

// runBody runs a block body's micro-ops in order and returns the index
// and error of the first that fails. It is a call of its own so that
// each micro-op call spills and reloads only its few locals, not the
// dispatch loop's state.
//
//go:noinline
func (m *Machine) runBody(body []microOp) (int32, error) {
	for j, op := range body {
		if err := op(m); err != nil {
			return int32(j), err
		}
	}
	return 0, nil
}

// settlePartial accounts a block whose body faulted at body index j: the
// faulting instruction executed (and is counted and charged), everything
// after it did not. When body[j] is a superinstruction (or, at j ==
// len(body), the folded compare), the faulting instruction is its
// constituent m.faultOff (set by the fused op), and the constituents
// before it executed. Guards never fault, and their arms accounted for
// themselves when they ran, so arm instructions are skipped.
func (m *Machine) settlePartial(c *compiled, b *block, j int32) {
	last := c.opStart(b, j) + m.faultOff
	m.faultOff = 0
	c.mainPath(b, last+1, func(lo, hi int32) {
		for i := lo; i < hi; i++ {
			m.counts[i]++
			m.Cycles += m.costs[i]
		}
		m.Steps += uint64(hi - lo)
	})
	m.pcIdx = last
}

// mainPath calls f on each stretch [lo, hi) of b's instructions before
// end that lies outside its guarded arms, in order.
func (c *compiled) mainPath(b *block, end int32, f func(lo, hi int32)) {
	lo := b.start
	for _, a := range c.arms[b.arm0 : b.arm0+b.arms] {
		if a.start >= end {
			break
		}
		f(lo, a.start)
		lo = a.start + a.n
	}
	f(lo, end)
}

// flushBlockCounts expands the per-block and per-arm execution counters
// into the per-instruction counts the rest of the system consumes
// (profiles, search prioritization). Runs once per Run exit, so count
// accounting is O(static blocks), not O(executed steps).
//
// It also adds the run's compiled-tier work to the process census
// (ReadCensus): blocks dispatched, micro-ops executed (each block's
// executions times its body length, plus each arm's executions times its
// micro-ops) and every instruction the run executed since Steps read
// steps.
func (m *Machine) flushBlockCounts(c *compiled, steps uint64) {
	var blocks, ops uint64
	for bi, execs := range m.blkExec {
		if execs == 0 {
			continue
		}
		b := &c.blocks[bi]
		c.mainPath(b, b.start+b.n, func(lo, hi int32) {
			for i := lo; i < hi; i++ {
				m.counts[i] += execs
			}
		})
		m.blkExec[bi] = 0
		blocks += execs
		ops += execs * uint64(len(b.body))
	}
	for k, execs := range m.armExec {
		if execs == 0 {
			continue
		}
		a := &c.arms[k]
		for i := a.start; i < a.start+a.n; i++ {
			m.counts[i] += execs
		}
		m.armExec[k] = 0
		ops += execs * uint64(a.ops)
	}
	census.blocks.Add(blocks)
	census.microOps.Add(ops)
	census.steps.Add(m.Steps - steps)
}

// Census is the work the compiled tier has executed in this process.
// Blocks and MicroOps count whole blocks: a block whose body faults or
// whose budget expires inside it is not counted. Steps counts every
// instruction of a compiled-tier run, the per-step stretches included
// (mid-block entries, budget-expiry finishes, runs a mid-block stop
// routes per-step), so it does not depend on the block partition. The
// census is deterministic for a given sequence of runs, so it measures
// what fusion and block partition changes remove independently of the
// host.
type Census struct {
	Blocks   uint64 // blocks dispatched
	MicroOps uint64 // micro-ops executed: block bodies and guarded arms
	Steps    uint64 // instructions executed by compiled-tier runs
}

var census struct{ blocks, microOps, steps atomic.Uint64 }

// ReadCensus returns the compiled-tier census so far; the difference of
// two readings is the work in between.
func ReadCensus() Census {
	return Census{Blocks: census.blocks.Load(), MicroOps: census.microOps.Load(), Steps: census.steps.Load()}
}

// Inline-friendly memory fast paths. Each computes the effective address
// and performs the access after one explicit range-and-wrap check, then
// reads or writes through memU64 and its siblings (mem_direct.go), which
// repeat no bounds check; on a bounds failure the caller re-runs the
// interpreter's load/store, which deterministically reproduces the exact
// fault. Kept tiny so the compiler inlines them into the closures.

func loadU64(m *Machine, ref isa.MemRef) (uint64, bool) { return load64At(m, m.ea(ref)) }

func loadU32(m *Machine, ref isa.MemRef) (uint64, bool) {
	addr := m.ea(ref)
	if addr+4 > uint64(len(m.Mem)) || addr+4 < addr {
		return 0, false
	}
	return uint64(memU32(m.Mem, addr)), true
}

// loadRef and storeRef are loadU64 and storeU64 through a pointer to the
// memory operand, for the superinstructions' decoded structs: a MemRef
// passed by value is copied through the stack on every call.
func loadRef(m *Machine, ref *isa.MemRef) (uint64, bool) { return load64At(m, m.eaRef(ref)) }

// eaRef is Machine.ea through a pointer to the operand.
func (m *Machine) eaRef(ref *isa.MemRef) uint64 {
	addr := m.GPR[ref.Base] + uint64(int64(ref.Disp))
	if ref.HasIndex {
		addr += m.GPR[ref.Index] * uint64(ref.Scale)
	}
	return addr
}

func storeRef(m *Machine, ref *isa.MemRef, v uint64) (uint64, bool) {
	addr := m.eaRef(ref)
	return addr, store64At(m, addr, v)
}

// load64At is loadU64 at an address the caller computed (the fused
// index-access ops compute theirs from the index they just produced).
func load64At(m *Machine, addr uint64) (uint64, bool) {
	if addr+8 > uint64(len(m.Mem)) || addr+8 < addr {
		return 0, false
	}
	return memU64(m.Mem, addr), true
}

// The store helpers return the effective address they computed so
// callers on tracked machines can mark the write without computing it a
// second time (the address is meaningless when ok is false).

func storeU64(m *Machine, ref isa.MemRef, v uint64) (uint64, bool) {
	addr := m.ea(ref)
	return addr, store64At(m, addr, v)
}

// store64At is storeU64 at an address the caller computed.
func store64At(m *Machine, addr, v uint64) bool {
	if addr+8 > uint64(len(m.Mem)) || addr+8 < addr {
		return false
	}
	putMemU64(m.Mem, addr, v)
	return true
}

func storeU32(m *Machine, ref isa.MemRef, v uint64) (uint64, bool) {
	addr := m.ea(ref)
	if addr+4 > uint64(len(m.Mem)) || addr+4 < addr {
		return 0, false
	}
	putMemU32(m.Mem, addr, uint32(v))
	return addr, true
}

// compileOp pre-decodes one straight-line instruction into a closure.
// Operand fields are resolved here, once, instead of on every execution;
// the captured *isa.Instr is only consulted on fault paths. Uncommon
// opcodes fall back to the shared stepFP executor — still closure
// dispatch, just without operand pre-decoding.
func compileOp(in *isa.Instr) microOp {
	switch in.Op {
	case isa.NOP:
		return func(*Machine) error { return nil }
	case isa.SYSCALL:
		return func(m *Machine) error { return m.syscall(in) }

	case isa.MOVRI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] = imm; return nil }
	case isa.MOVRR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] = m.GPR[src]; return nil }
	case isa.LOAD:
		dst, ref := in.A.Reg, in.B.Mem
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				_, err := m.load(in, ref, 8)
				return err
			}
			m.GPR[dst] = v
			return nil
		}
	case isa.STORE:
		ref, src := in.A.Mem, in.B.Reg
		return func(m *Machine) error {
			addr, ok := storeU64(m, ref, m.GPR[src])
			if !ok {
				return m.store(in, ref, m.GPR[src], 8)
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	case isa.LEA:
		dst, ref := in.A.Reg, in.B.Mem
		return func(m *Machine) error { m.GPR[dst] = m.ea(ref); return nil }

	case isa.ADDR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] += m.GPR[src]; return nil }
	case isa.ADDI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] += imm; return nil }
	case isa.SUBR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] -= m.GPR[src]; return nil }
	case isa.SUBI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] -= imm; return nil }
	case isa.IMULR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			m.GPR[dst] = uint64(int64(m.GPR[dst]) * int64(m.GPR[src]))
			return nil
		}
	case isa.IMULI:
		dst, imm := in.A.Reg, in.B.Imm
		return func(m *Machine) error {
			m.GPR[dst] = uint64(int64(m.GPR[dst]) * imm)
			return nil
		}
	case isa.ANDR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] &= m.GPR[src]; return nil }
	case isa.ANDI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] &= imm; return nil }
	case isa.ORR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] |= m.GPR[src]; return nil }
	case isa.ORI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] |= imm; return nil }
	case isa.XORR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.GPR[dst] ^= m.GPR[src]; return nil }
	case isa.XORI:
		dst, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.GPR[dst] ^= imm; return nil }
	case isa.IDIVR:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			d := int64(m.GPR[src])
			if d == 0 {
				return m.fault(FaultMemOOB, in, "integer division by zero")
			}
			m.GPR[dst] = uint64(int64(m.GPR[dst]) / d)
			return nil
		}
	case isa.SHLI:
		dst, sh := in.A.Reg, uint64(in.B.Imm)&63
		return func(m *Machine) error { m.GPR[dst] <<= sh; return nil }
	case isa.SHRI:
		dst, sh := in.A.Reg, uint64(in.B.Imm)&63
		return func(m *Machine) error { m.GPR[dst] >>= sh; return nil }

	case isa.CMPR:
		a, bb := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.setCmp(m.GPR[a], m.GPR[bb]); return nil }
	case isa.CMPI:
		a, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.setCmp(m.GPR[a], imm); return nil }
	case isa.TESTR:
		a, bb := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.setTest(m.GPR[a] & m.GPR[bb]); return nil }
	case isa.TESTI:
		a, imm := in.A.Reg, uint64(in.B.Imm)
		return func(m *Machine) error { m.setTest(m.GPR[a] & imm); return nil }

	case isa.PUSH:
		src := in.A.Reg
		return func(m *Machine) error { return m.push64(in, m.GPR[src]) }
	case isa.POP:
		dst := in.A.Reg
		return func(m *Machine) error {
			v, err := m.pop64(in)
			if err != nil {
				return err
			}
			m.GPR[dst] = v
			return nil
		}
	case isa.PUSHX:
		src := in.A.Reg
		return func(m *Machine) error {
			sp := m.GPR[isa.RSP] - 16
			m.GPR[isa.RSP] = sp
			if sp+16 > uint64(len(m.Mem)) || sp+16 < sp {
				// Out of bounds somewhere: replay on the interpreter's
				// stores for the exact fault (the first may succeed and
				// mutate memory before the second faults, as in Step).
				if err := m.store(in, spMem(m), m.XMM[src][0], 8); err != nil {
					return err
				}
				return m.store(in, spMemOff(m, 8), m.XMM[src][1], 8)
			}
			binary.LittleEndian.PutUint64(m.Mem[sp:], m.XMM[src][0])
			binary.LittleEndian.PutUint64(m.Mem[sp+8:], m.XMM[src][1])
			if m.track != nil {
				m.track.markRange(sp, 16)
			}
			return nil
		}
	case isa.POPX:
		dst := in.A.Reg
		return func(m *Machine) error {
			sp := m.GPR[isa.RSP]
			if sp+16 > uint64(len(m.Mem)) || sp+16 < sp {
				lo, err := m.load(in, spMem(m), 8)
				if err != nil {
					return err
				}
				hi, err := m.load(in, spMemOff(m, 8), 8)
				if err != nil {
					return err
				}
				m.XMM[dst][0], m.XMM[dst][1] = lo, hi
				m.GPR[isa.RSP] += 16
				return nil
			}
			m.XMM[dst][0] = binary.LittleEndian.Uint64(m.Mem[sp:])
			m.XMM[dst][1] = binary.LittleEndian.Uint64(m.Mem[sp+8:])
			m.GPR[isa.RSP] = sp + 16
			return nil
		}

	case isa.MOVSD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			dst, src := in.A.Reg, in.B.Reg
			return func(m *Machine) error { m.XMM[dst][0] = m.XMM[src][0]; return nil }
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			dst, ref := in.A.Reg, in.B.Mem
			return func(m *Machine) error {
				v, ok := loadU64(m, ref)
				if !ok {
					_, err := m.load(in, ref, 8)
					return err
				}
				m.XMM[dst][0], m.XMM[dst][1] = v, 0
				return nil
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			ref, src := in.A.Mem, in.B.Reg
			return func(m *Machine) error {
				addr, ok := storeU64(m, ref, m.XMM[src][0])
				if !ok {
					return m.store(in, ref, m.XMM[src][0], 8)
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
	case isa.MOVSS:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			dst, src := in.A.Reg, in.B.Reg
			return func(m *Machine) error { m.setLow32(dst, uint32(m.XMM[src][0])); return nil }
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			dst, ref := in.A.Reg, in.B.Mem
			return func(m *Machine) error {
				v, ok := loadU32(m, ref)
				if !ok {
					_, err := m.load(in, ref, 4)
					return err
				}
				m.XMM[dst][0], m.XMM[dst][1] = v, 0
				return nil
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			ref, src := in.A.Mem, in.B.Reg
			return func(m *Machine) error {
				addr, ok := storeU32(m, ref, m.XMM[src][0])
				if !ok {
					return m.store(in, ref, m.XMM[src][0], 4)
				}
				if m.track != nil {
					m.track.markRange(addr, 4)
				}
				return nil
			}
		}
	case isa.MOVAPD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			dst, src := in.A.Reg, in.B.Reg
			return func(m *Machine) error { m.XMM[dst] = m.XMM[src]; return nil }
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			dst, ref := in.A.Reg, in.B.Mem
			refHi := ref
			refHi.Disp += 8
			return func(m *Machine) error {
				lo, ok := loadU64(m, ref)
				if !ok {
					_, err := m.load(in, ref, 8)
					return err
				}
				hi, ok := loadU64(m, refHi)
				if !ok {
					_, err := m.load(in, refHi, 8)
					return err
				}
				m.XMM[dst][0], m.XMM[dst][1] = lo, hi
				return nil
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			ref, src := in.A.Mem, in.B.Reg
			refHi := ref
			refHi.Disp += 8
			return func(m *Machine) error {
				// Marked half by half: the high store may fault after
				// the low one has already written.
				addr, ok := storeU64(m, ref, m.XMM[src][0])
				if !ok {
					return m.store(in, ref, m.XMM[src][0], 8)
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				addr, ok = storeU64(m, refHi, m.XMM[src][1])
				if !ok {
					return m.store(in, refHi, m.XMM[src][1], 8)
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
	case isa.MOVQ:
		if in.A.Kind == isa.KindGPR {
			dst, src := in.A.Reg, in.B.Reg
			return func(m *Machine) error { m.GPR[dst] = m.XMM[src][0]; return nil }
		}
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.XMM[dst][0] = m.GPR[src]; return nil }
	case isa.MOVHQ:
		if in.A.Kind == isa.KindGPR {
			dst, src := in.A.Reg, in.B.Reg
			return func(m *Machine) error { m.GPR[dst] = m.XMM[src][1]; return nil }
		}
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error { m.XMM[dst][1] = m.GPR[src]; return nil }

	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		op, dst := in.Op, in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				a := math.Float64frombits(m.XMM[dst][0])
				b := math.Float64frombits(m.XMM[src][0])
				m.XMM[dst][0] = math.Float64bits(arith64(op, a, b))
				return nil
			}
		}
		if in.B.Kind == isa.KindMem {
			ref := in.B.Mem
			return func(m *Machine) error {
				v, ok := loadU64(m, ref)
				if !ok {
					_, err := m.load(in, ref, 8)
					return err
				}
				a := math.Float64frombits(m.XMM[dst][0])
				m.XMM[dst][0] = math.Float64bits(arith64(op, a, math.Float64frombits(v)))
				return nil
			}
		}
	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS:
		op, dst := in.Op, in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				a := math.Float32frombits(uint32(m.XMM[dst][0]))
				b := math.Float32frombits(uint32(m.XMM[src][0]))
				m.setLow32(dst, math.Float32bits(arith32(op, a, b)))
				return nil
			}
		}
		if in.B.Kind == isa.KindMem {
			ref := in.B.Mem
			return func(m *Machine) error {
				v, ok := loadU32(m, ref)
				if !ok {
					_, err := m.load(in, ref, 4)
					return err
				}
				a := math.Float32frombits(uint32(m.XMM[dst][0]))
				m.setLow32(dst, math.Float32bits(arith32(op, a, math.Float32frombits(uint32(v)))))
				return nil
			}
		}
	case isa.SQRTSD:
		dst := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				m.XMM[dst][0] = math.Float64bits(math.Sqrt(math.Float64frombits(m.XMM[src][0])))
				return nil
			}
		}
	case isa.SQRTSS:
		dst := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				m.setLow32(dst, math.Float32bits(sqrt32(math.Float32frombits(uint32(m.XMM[src][0])))))
				return nil
			}
		}
	case isa.UCOMISD:
		a := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				m.setUcomi(math.Float64frombits(m.XMM[a][0]), math.Float64frombits(m.XMM[src][0]))
				return nil
			}
		}
		if in.B.Kind == isa.KindMem {
			ref := in.B.Mem
			return func(m *Machine) error {
				v, ok := loadU64(m, ref)
				if !ok {
					_, err := m.load(in, ref, 8)
					return err
				}
				m.setUcomi(math.Float64frombits(m.XMM[a][0]), math.Float64frombits(v))
				return nil
			}
		}
	case isa.UCOMISS:
		a := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				av := math.Float32frombits(uint32(m.XMM[a][0]))
				bv := math.Float32frombits(uint32(m.XMM[src][0]))
				m.setUcomi(float64(av), float64(bv))
				return nil
			}
		}
	case isa.CVTSD2SS:
		dst := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				m.setLow32(dst, math.Float32bits(float32(math.Float64frombits(m.XMM[src][0]))))
				return nil
			}
		}
	case isa.CVTSS2SD:
		dst := in.A.Reg
		if in.B.Kind == isa.KindXMM {
			src := in.B.Reg
			return func(m *Machine) error {
				m.XMM[dst][0] = math.Float64bits(float64(math.Float32frombits(uint32(m.XMM[src][0]))))
				return nil
			}
		}
	case isa.CVTSI2SD:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			m.XMM[dst][0] = math.Float64bits(float64(int64(m.GPR[src])))
			return nil
		}
	case isa.CVTTSD2SI:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			m.GPR[dst] = uint64(int64(math.Float64frombits(m.XMM[src][0])))
			return nil
		}
	case isa.CVTSI2SS:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			m.setLow32(dst, math.Float32bits(float32(int64(m.GPR[src]))))
			return nil
		}
	case isa.CVTTSS2SI:
		dst, src := in.A.Reg, in.B.Reg
		return func(m *Machine) error {
			m.GPR[dst] = uint64(int64(math.Float32frombits(uint32(m.XMM[src][0]))))
			return nil
		}
	}
	// Everything else (packed ops, bitwise XMM, transcendentals, memory
	// forms not specialized above, and any invalid operand combination)
	// executes through the shared FP interpreter, which faults exactly as
	// the per-step tier does.
	return func(m *Machine) error { return m.stepFP(in) }
}
