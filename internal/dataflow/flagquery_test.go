package dataflow_test

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"fpmix/internal/dataflow"
	"fpmix/internal/isa"
	"fpmix/internal/kernels"
)

// cleanGolden digests the answers of 24 CleanOperandsUnder queries per
// class-W kernel, under random single sets (rand seed 4242; set sizes
// 1–8, every sixth up to every candidate) over every candidate: one
// (Src, Dst) byte pair per candidate and query, FNV-1a. The digests were
// taken from the analysis that resolved every memory operand on each
// transfer, before operands were resolved once per analysis and queries
// reused their fixpoint state.
var cleanGolden = map[string]uint64{
	"bt": 0x4d32a8f88b1b95b7,
	"cg": 0x98bc7f80c3049ad1,
	"ep": 0xa4624bc75fde0f8,
	"ft": 0xff25128ba1d035b9,
	"lu": 0xbcc4ce140d214cad,
	"mg": 0x65f37a9a9e94440,
	"sp": 0x118fc6bb1275d91b,
}

// TestCleanOperandsUnderGolden: one query reused across random single
// sets answers exactly what the per-transfer resolution answered, and
// what a fresh query answers for the same set.
func TestCleanOperandsUnderGolden(t *testing.T) {
	for name, want := range cleanGolden {
		bench, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := dataflow.NewFlagAnalysis(bench.Module)
		if err != nil {
			t.Fatal(err)
		}
		var cands []uint64
		for _, in := range bench.Module.Instructions() {
			if isa.IsCandidate(in.Op) {
				cands = append(cands, in.Addr)
			}
		}
		r := rand.New(rand.NewSource(4242))
		h := fnv.New64a()
		reused := fa.NewQuery()
		for q := 0; q < 24; q++ {
			n := 1 + r.Intn(min(8, len(cands)))
			if q%6 == 5 {
				n = 1 + r.Intn(len(cands))
			}
			singles := map[uint64]bool{}
			for len(singles) < n {
				singles[cands[r.Intn(len(cands))]] = true
			}
			fresh := fa.NewQuery()
			for a := range singles {
				reused.Single(a)
				fresh.Single(a)
			}
			got := reused.CleanOperandsUnder(cands)
			if !slices.Equal(got, fresh.CleanOperandsUnder(cands)) {
				t.Fatalf("%s query %d: a reused query answers differently from a fresh one", name, q)
			}
			for _, oc := range got {
				h.Write([]byte{b2(oc.Src), b2(oc.Dst)})
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s: answers digest %#x, want %#x", name, got, want)
		}
	}
}

func b2(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestFlagQueryWarmAllocs pins that a warm query allocates nothing.
func TestFlagQueryWarmAllocs(t *testing.T) {
	bench, err := kernels.Get("bt", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := dataflow.NewFlagAnalysis(bench.Module)
	if err != nil {
		t.Fatal(err)
	}
	var cands []uint64
	for _, in := range bench.Module.Instructions() {
		if isa.IsCandidate(in.Op) {
			cands = append(cands, in.Addr)
		}
	}
	q := fa.NewQuery()
	run := func(k int) {
		q.Single(cands[k%len(cands)])
		q.CleanOperandsUnder(cands)
	}
	for k := 0; k < len(cands); k++ { // warm: the widest flagged subgraph sizes the slabs
		run(k)
	}
	k := 0
	if allocs := testing.AllocsPerRun(20, func() { run(k); k += 7 }); allocs != 0 {
		t.Errorf("%.1f allocations per warm query, want 0", allocs)
	}
}
