package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// TestIncrementalAgreesWithLinkOnKernels is the agreement test over the
// seven searched class-W kernels' stable layouts: random choices of
// every available variant per site (wrapped double, single, bare and
// the narrowed wrappers), assembled unsplit and with every site split,
// must equal Link of the same flattened stream in blocks,
// superinstructions, folded terminators and final machines, and some
// superinstructions must span slot boundaries.
func TestIncrementalAgreesWithLinkOnKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every class-W kernel")
	}
	r := rand.New(rand.NewSource(2803))
	for _, name := range []string{"bt", "cg", "ep", "ft", "lu", "mg", "sp"} {
		bench, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			t.Fatal(err)
		}
		il, sites, all := kernelLinker(t, bench.Module)
		cross := 0
		var buf *vm.Program // reused across configurations, as an evaluation slot does
		for n := 0; n < 3; n++ {
			ch := make([]int, len(sites))
			for k, s := range sites {
				for {
					if v := r.Intn(len(s.Variants)); s.Variants[v] != nil {
						ch[k] = v
						break
					}
				}
			}
			for _, split := range [][]int{nil, all} {
				label := fmt.Sprintf("%s choices %d split %d", name, n, len(split))
				cross += vm.AgreeWithLink(t, label, il, sites, nil, ch, split)
				if buf == nil {
					if buf, err = il.Assemble(nil, ch); err != nil {
						t.Fatal(err)
					}
				}
				vm.AgreeWithLink(t, label+" into a reused buffer", il, sites, buf, ch, split)
			}
		}
		if cross == 0 {
			t.Errorf("%s: no superinstruction spans a slot boundary", name)
		}
	}
}

// kernelLinker builds the incremental linker of mod's stable slotted
// layout, as the fork-point search does, and lists every site index.
func kernelLinker(t *testing.T, mod *prog.Module) (*vm.IncrementalLinker, []vm.IncrementalSite, []int) {
	t.Helper()
	cs, err := replace.Precompile(mod, replace.InstrumentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cs.Stable()
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]vm.IncrementalSite, len(sp.Sites))
	all := make([]int, len(sites))
	for i, s := range sp.Sites {
		sites[i] = vm.IncrementalSite{Addr: s.Addr, Variants: s.Variants}
		all[i] = i
	}
	il, err := vm.NewIncrementalLinker(sp.Skeleton, sites)
	if err != nil {
		t.Fatal(err)
	}
	return il, sites, all
}

// TestIncrementalWarmAssembleAllocs pins that a warm assembly into a
// buffer allocates nothing: once the boundary superinstruction cache
// holds both configurations, alternating between them reuses every
// array of the buffer and of its compiled stream.
func TestIncrementalWarmAssembleAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3001))
	for _, name := range []string{"bt", "lu", "sp"} {
		bench, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			t.Fatal(err)
		}
		il, sites, _ := kernelLinker(t, bench.Module)
		var chs [2][]int
		for n := range chs {
			chs[n] = make([]int, len(sites))
			for k, s := range sites {
				for {
					if v := r.Intn(len(s.Variants)); s.Variants[v] != nil {
						chs[n][k] = v
						break
					}
				}
			}
		}
		var buf *vm.Program
		for _, ch := range chs { // warm the cache and the buffer
			if buf, err = il.Assemble(buf, ch); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := il.Assemble(buf, chs[n%2]); err != nil {
				t.Fatal(err)
			}
			n++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per warm assembly into a buffer, want 0", name, allocs)
		}
	}
}
