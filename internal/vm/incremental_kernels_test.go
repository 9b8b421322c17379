package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fpmix/internal/kernels"
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
		cs, err := replace.Precompile(bench.Module, replace.InstrumentOptions{})
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
		cross := 0
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
				cross += vm.AgreeWithLink(t, fmt.Sprintf("%s choices %d split %d", name, n, len(split)), il, sites, ch, split)
			}
		}
		if cross == 0 {
			t.Errorf("%s: no superinstruction spans a slot boundary", name)
		}
	}
}
