package vm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fpmix/internal/hl"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
)

// The incremental linker and Link are two routes to one compiled stream:
// Assemble splices cached fragments (micro-ops, superinstructions, costs,
// pre-resolved branches), Link compiles the flattened stream from
// scratch. These tests pin that the two cannot diverge.

// stableLinker builds the incremental linker of mod's stable slotted
// layout, as the fork-point search does.
func stableLinker(t *testing.T, mod *prog.Module) (*IncrementalLinker, []IncrementalSite) {
	t.Helper()
	cs, err := replace.Precompile(mod, replace.InstrumentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cs.Stable()
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]IncrementalSite, len(sp.Sites))
	for i, s := range sp.Sites {
		sites[i] = IncrementalSite{Addr: s.Addr, Variants: s.Variants}
	}
	il, err := NewIncrementalLinker(sp.Skeleton, sites)
	if err != nil {
		t.Fatal(err)
	}
	return il, sites
}

// agreementChoices returns the variant vectors the agreement test
// assembles: every site at each uniform variant it has, then random
// mixes of the available variants.
func agreementChoices(sites []IncrementalSite, r *rand.Rand) [][]int {
	var out [][]int
	for v := 0; v < replace.NumVariants; v++ {
		ch := make([]int, len(sites))
		for k, s := range sites {
			if v < len(s.Variants) && s.Variants[v] != nil {
				ch[k] = v
			}
		}
		out = append(out, ch)
	}
	for n := 0; n < 6; n++ {
		ch := make([]int, len(sites))
		for k, s := range sites {
			for {
				v := r.Intn(len(s.Variants))
				if s.Variants[v] != nil {
					ch[k] = v
					break
				}
			}
		}
		out = append(out, ch)
	}
	return out
}

// blockShape is the comparable content of a compiled block.
type blockShape struct {
	start, n      int32
	cost          uint64
	term          termKind
	fold          bool
	taken, fall   int32 // successor block ids, -1 when nil
	takenAddr, rt uint64
	spans         string
}

func shapeOf(c *compiled, b *block) blockShape {
	s := blockShape{start: b.start, n: b.n, cost: b.cost, term: b.term, fold: b.fold != nil,
		taken: -1, fall: -1, takenAddr: b.takenAddr, rt: b.ret,
		spans: fmt.Sprint(bodySpans(c, b))}
	if b.takenBlk != nil {
		s.taken = b.takenBlk.id
	}
	if b.fallBlk != nil {
		s.fall = b.fallBlk.id
	}
	return s
}

// TestIncrementalAssembleAgreesWithLink assembles configurations of
// stable layouts and links the same flattened instruction streams from
// scratch, in two legs. With no split sites — every assembly but the
// donor pass's — the block partition must be exactly Link's; with every
// site split — the donor's shape — it must be Link's plus every slot
// base. In both legs block costs must agree, the superinstruction list
// must be exactly the one Link matches in the flattened stream (so FP
// arithmetic alone in its slot fuses across the slot boundary), and the
// blocks, fused spans and folded terminators must be those of that
// stream compiled with the split slot bases as extra leaders. Both
// programs must also run to identical machines.
func TestIncrementalAssembleAgreesWithLink(t *testing.T) {
	mods := map[string]*prog.Module{"loop": fuseLoopProgram(t), "calls": agreementCallProgram(t)}
	r := rand.New(rand.NewSource(1401))
	for name, mod := range mods {
		il, sites := stableLinker(t, mod)
		if len(sites) == 0 {
			t.Fatalf("%s: no replacement sites", name)
		}
		all := everySite(len(sites))
		cross := 0
		for ci, ch := range agreementChoices(sites, r) {
			for _, split := range [][]int{nil, all} {
				label := fmt.Sprintf("%s choices %d split %d", name, ci, len(split))
				cross += agreeWithLink(t, label, il, sites, ch, split)
			}
		}
		if cross == 0 {
			t.Errorf("%s: no superinstruction spans a fragment boundary", name)
		}
	}
}

// everySite lists the indices of n sites: the donor pass's split set
// when it stops at every slot.
func everySite(n int) []int {
	all := make([]int, n)
	for k := range all {
		all[k] = k
	}
	return all
}

// agreeWithLink checks one assembly of the agreement test: choices ch
// with every site of split (nil or all of them) split at its slot base.
// It returns how many superinstructions span a fragment boundary.
func agreeWithLink(t *testing.T, label string, il *IncrementalLinker, sites []IncrementalSite, ch, split []int) int {
	t.Helper()
	lpA, err := il.Assemble(ch, split...)
	if err != nil {
		t.Fatal(err)
	}
	lpL, err := linkStream(il.Module(), slices.Clone(lpA.instrs))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lpA.costs, lpL.costs) || !slices.Equal(lpA.targets, lpL.targets) || lpA.entry != lpL.entry {
		t.Fatalf("%s: costs, targets or entry differ", label)
	}

	// Fragment boundaries: every slot's base and end. Split slot bases
	// are extra leaders.
	slot := make([]bool, len(lpA.instrs))
	var slotLeaders []int32
	bound := []int{0, len(lpA.instrs)}
	for k, s := range sites {
		base, ok := lpL.idxOf(s.Addr)
		if !ok {
			t.Fatalf("%s: slot %#x not an instruction", label, s.Addr)
		}
		if split != nil {
			slot[base] = true
			slotLeaders = append(slotLeaders, base)
		}
		bound = append(bound, int(base), int(base)+len(s.Variants[ch[k]]))
	}

	// Partition: Link's leaders plus the split slot bases.
	a, l := lpA.compiled, lpL.compiled
	for i := range a.leader {
		if a.leader[i] != (l.leader[i] || slot[i]) {
			t.Fatalf("%s: instruction %d: assembled leader %v, linked %v, split slot base %v",
				label, i, a.leader[i], l.leader[i], slot[i])
		}
	}
	// Costs: each linked block costs what its assembled pieces do.
	for bi := range l.blocks {
		lb := &l.blocks[bi]
		var sum uint64
		for i := lb.start; i < lb.start+lb.n; {
			ab := &a.blocks[a.blockOf[i]]
			sum += ab.cost
			i = ab.start + ab.n
		}
		if sum != lb.cost {
			t.Fatalf("%s: linked block at %d costs %d, assembled pieces %d", label, lb.start, lb.cost, sum)
		}
	}

	// Superinstructions: exactly Link's, and the blocks built from them
	// are those of the flattened stream with the split slot bases as
	// extra leaders.
	ops, fused := compileFrag(lpL.instrs, false)
	if got, want := fusedShapes(a.fused), fusedShapes(fused); !slices.Equal(got, want) {
		t.Fatalf("%s: assembled superinstructions differ from Link's (%d vs %d)", label, len(got), len(want))
	}
	ref := compileProgramWith(lpL, ops, fused, slotLeaders)
	if len(ref.blocks) != len(a.blocks) {
		t.Fatalf("%s: %d assembled blocks, reference %d", label, len(a.blocks), len(ref.blocks))
	}
	nfused, cross := 0, 0
	for bi := range a.blocks {
		if got, want := shapeOf(a, &a.blocks[bi]), shapeOf(ref, &ref.blocks[bi]); got != want {
			t.Fatalf("%s: block %d: assembled %+v, reference %+v", label, bi, got, want)
		}
		if hasFused(a, &a.blocks[bi]) {
			nfused++
		}
	}
	for _, f := range a.fused {
		if i, _ := slices.BinarySearch(bound, int(f.at)+1); i < len(bound) && bound[i] < int(f.at+f.n) {
			cross++
		}
	}
	if nfused == 0 {
		t.Errorf("%s: no block holds a superinstruction", label)
	}
	// Where a block is the same in Link's own stream, Link fused it
	// identically.
	for bi := range a.blocks {
		ab := &a.blocks[bi]
		lb := &l.blocks[l.blockOf[ab.start]]
		if lb.start != ab.start || lb.n != ab.n {
			continue
		}
		if got, want := shapeOf(a, ab), shapeOf(l, lb); got.spans != want.spans || got.fold != want.fold {
			t.Fatalf("%s: block at %d: assembled %+v, linked %+v", label, ab.start, got, want)
		}
	}

	ma, ml := lpA.NewMachine(), lpL.NewMachine()
	diffMachines(t, label, engineResult{ma, ma.Run()}, engineResult{ml, ml.Run()})
	return cross
}

// fusedShape is the comparable content of a superinstruction.
type fusedShape struct {
	at, n int32
	fold  bool
}

func fusedShapes(fused []fusedOp) []fusedShape {
	out := make([]fusedShape, len(fused))
	for i, f := range fused {
		out[i] = fusedShape{f.at, f.n, f.fold != nil}
	}
	return out
}

// agreementCallProgram adds calls, returns and data-dependent branches
// around FP sites, so assemblies have return continuations, conditional
// terminators and sites at block boundaries.
func agreementCallProgram(t *testing.T) *prog.Module {
	t.Helper()
	p := hl.New("calls", hl.ModeF64)
	a := p.ArrayInit("a", []float64{1.5, -2.25, 3, 0.5, 4.75, -8.5, 1.25, 2})
	s := p.ScalarInit("s", 0.5)
	k := p.Int("k")
	sub := p.Func("sub")
	sub.If(hl.Lt(hl.Load(s), hl.Const(3)), func() {
		sub.Set(s, hl.Add(hl.Mul(hl.Load(s), hl.Const(1.5)), hl.At(a, hl.IAnd(hl.ILoad(k), hl.IConst(7)))))
	}, func() {
		sub.Set(s, hl.Sqrt(hl.Abs(hl.Sub(hl.Load(s), hl.Const(math.Pi)))))
	})
	sub.Ret()
	f := p.Func("main")
	f.For(k, hl.IConst(0), hl.IConst(12), func() {
		f.Call("sub")
		f.Store(a, hl.IAnd(hl.IAdd(hl.ILoad(k), hl.IConst(3)), hl.IConst(7)), hl.Div(hl.Load(s), hl.Const(4)))
	})
	f.Out(hl.Load(s))
	f.Halt()
	mod, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// blocksDispatched counts the executions of block-leading instructions
// between two count vectors of one run on lp: the blocks the compiled
// tier dispatched.
func blocksDispatched(lp *Program, before, after []uint64) uint64 {
	var n uint64
	for i, l := range lp.compiled.leader {
		if l {
			n += after[i] - before[i]
		}
	}
	return n
}

// TestIncrementalUnsplitDispatchesFewerBlocks pins what leaving slot
// bases unsplit buys: the same choices assembled with every site split
// (the donor's shape) and with none (every other assembly) run to
// identical machines, from the entry point and restored from a snapshot
// at each slot base the run reaches, and the unsplit program dispatches
// fewer blocks.
func TestIncrementalUnsplitDispatchesFewerBlocks(t *testing.T) {
	mods := map[string]*prog.Module{"loop": fuseLoopProgram(t), "calls": agreementCallProgram(t)}
	r := rand.New(rand.NewSource(2101))
	for name, mod := range mods {
		il, sites := stableLinker(t, mod)
		all := everySite(len(sites))
		midBlock := 0
		for ci, ch := range agreementChoices(sites, r) {
			label := fmt.Sprintf("%s choices %d", name, ci)
			split, err := il.Assemble(ch, all...)
			if err != nil {
				t.Fatal(err)
			}
			unsplit, err := il.Assemble(ch)
			if err != nil {
				t.Fatal(err)
			}
			// run finishes a machine of lp — from snap, or from the
			// entry point when snap is nil — and reports the blocks it
			// dispatched.
			run := func(lp *Program, snap *Snapshot) (engineResult, uint64) {
				m := lp.NewMachine()
				if snap != nil {
					if err := m.RestoreTo(lp, snap); err != nil {
						t.Fatal(err)
					}
				}
				before := slices.Clone(m.Counts())
				err := m.Run()
				return engineResult{m, err}, blocksDispatched(lp, before, m.Counts())
			}
			check := func(label string, snap *Snapshot) {
				rs, bs := run(split, snap)
				ru, bu := run(unsplit, snap)
				diffMachines(t, label, rs, ru)
				if bu >= bs {
					t.Errorf("%s: unsplit program dispatched %d blocks, split %d", label, bu, bs)
				}
			}
			check(label+" from entry", nil)

			// Snapshots at every slot base the run reaches, taken on the
			// split program at its compiled-tier stops.
			donor := split.NewMachine()
			for _, s := range sites {
				donor.StopAt(s.Addr)
			}
			stops := 0
			for {
				err := donor.Run()
				if err == nil {
					break
				}
				st, ok := err.(*Stopped)
				if !ok {
					t.Fatalf("%s: donor run: %v", label, err)
				}
				snap, err := donor.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s from slot %#x", label, st.PC), snap)
				donor.ClearStop(st.PC)
				if idx, _ := unsplit.idxOf(st.PC); !unsplit.compiled.leader[idx] {
					midBlock++
				}
				stops++
			}
			if stops == 0 {
				t.Fatalf("%s: the run reached no slot base", label)
			}
		}
		if midBlock == 0 {
			t.Errorf("%s: no snapshot restored the unsplit program mid-block", name)
		}
	}
}

// TestIncrementalConcurrentAssemble assembles the same configurations
// from several goroutines sharing one linker, so its boundary
// superinstruction cache fills concurrently (run under -race), and
// requires every assembly to match the one a fresh linker builds alone:
// same superinstructions and blocks. A second round over the warm cache
// must match too.
func TestIncrementalConcurrentAssemble(t *testing.T) {
	mod := fuseLoopProgram(t)
	shared, sites := stableLinker(t, mod)
	fresh, _ := stableLinker(t, mod)
	chs := agreementChoices(sites, rand.New(rand.NewSource(2802)))
	want := make([]string, len(chs))
	for i, ch := range chs {
		lp, err := fresh.Assemble(ch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = compiledShape(lp.compiled)
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, 4*len(chs))
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range chs {
					i := (k + g*len(chs)/4) % len(chs)
					lp, err := shared.Assemble(chs[i])
					if err != nil {
						errs <- err.Error()
						return
					}
					if got := compiledShape(lp.compiled); got != want[i] {
						errs <- fmt.Sprintf("round %d goroutine %d: choices %d assembled differently", round, g, i)
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// compiledShape renders a compiled stream's superinstructions and
// blocks for comparison.
func compiledShape(c *compiled) string {
	shapes := make([]blockShape, len(c.blocks))
	for i := range c.blocks {
		shapes[i] = shapeOf(c, &c.blocks[i])
	}
	return fmt.Sprint(fusedShapes(c.fused), shapes)
}
