package vm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	taken, fall   int32 // successor block ids, -1 when nil
	takenAddr, rt uint64
	spans         string
}

func shapeOf(c *compiled, b *block) blockShape {
	s := blockShape{start: b.start, n: b.n, cost: b.cost, term: b.term,
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
// scratch. The block partition must be Link's plus the slot bases
// Assemble adds, block costs must agree, and the fused spans must be
// exactly those of the flattened stream compiled with the slot bases as
// extra leaders and superinstructions confined to the assembly's
// fragments (no fused op spans a fragment boundary). Both programs must
// also run to identical machines.
func TestIncrementalAssembleAgreesWithLink(t *testing.T) {
	mods := map[string]*prog.Module{"loop": fuseLoopProgram(t), "calls": agreementCallProgram(t)}
	r := rand.New(rand.NewSource(1401))
	for name, mod := range mods {
		il, sites := stableLinker(t, mod)
		if len(sites) == 0 {
			t.Fatalf("%s: no replacement sites", name)
		}
		for ci, ch := range agreementChoices(sites, r) {
			label := fmt.Sprintf("%s choices %d", name, ci)
			lpA, err := il.Assemble(ch)
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

			// Fragment boundaries: every slot's base and end.
			slot := make([]bool, len(lpA.instrs))
			var slotLeaders []int32
			bound := []int{0, len(lpA.instrs)}
			for k, s := range sites {
				base, ok := lpL.idxOf(s.Addr)
				if !ok {
					t.Fatalf("%s: slot %#x not an instruction", label, s.Addr)
				}
				slot[base] = true
				slotLeaders = append(slotLeaders, base)
				bound = append(bound, int(base), int(base)+len(s.Variants[ch[k]]))
			}

			// Partition: Link's leaders plus the slot bases.
			a, l := lpA.compiled, lpL.compiled
			for i := range a.leader {
				if a.leader[i] != (l.leader[i] || slot[i]) {
					t.Fatalf("%s: instruction %d: assembled leader %v, linked %v, slot base %v",
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

			// Fused spans: the reference compiles the flattened stream
			// with fusion confined to the fragments.
			slices.Sort(bound)
			bound = slices.Compact(bound)
			ops := make([]microOp, len(lpL.instrs))
			var fused []fusedOp
			for k := 0; k+1 < len(bound); k++ {
				fo, ff := compileFrag(lpL.instrs[bound[k]:bound[k+1]])
				copy(ops[bound[k]:], fo)
				for _, f := range ff {
					f.at += int32(bound[k])
					fused = append(fused, f)
				}
			}
			ref := compileProgramWith(lpL, ops, fused, slotLeaders)
			if len(ref.blocks) != len(a.blocks) {
				t.Fatalf("%s: %d assembled blocks, reference %d", label, len(a.blocks), len(ref.blocks))
			}
			nfused := 0
			for bi := range a.blocks {
				if got, want := shapeOf(a, &a.blocks[bi]), shapeOf(ref, &ref.blocks[bi]); got != want {
					t.Fatalf("%s: block %d: assembled %+v, reference %+v", label, bi, got, want)
				}
				if hasFused(a, &a.blocks[bi]) {
					nfused++
				}
			}
			if nfused == 0 {
				t.Errorf("%s: no block holds a superinstruction", label)
			}
			// Where a block is the same in Link's own stream and lies in
			// one fragment, Link fused it identically.
			for bi := range a.blocks {
				ab := &a.blocks[bi]
				lb := &l.blocks[l.blockOf[ab.start]]
				if lb.start != ab.start || lb.n != ab.n {
					continue
				}
				if i, _ := slices.BinarySearch(bound, int(ab.start)+1); i < len(bound) && bound[i] < int(ab.start+ab.n) {
					continue
				}
				if got, want := fmt.Sprint(bodySpans(a, ab)), fmt.Sprint(bodySpans(l, lb)); got != want {
					t.Fatalf("%s: block at %d: assembled spans %s, linked %s", label, ab.start, got, want)
				}
			}

			ma, ml := lpA.NewMachine(), lpL.NewMachine()
			diffMachines(t, label, engineResult{ma, ma.Run()}, engineResult{ml, ml.Run()})
		}
	}
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
