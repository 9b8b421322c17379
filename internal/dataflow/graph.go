package dataflow

import (
	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Graph is a read-only exported handle over the instruction-level
// supergraph and the stable-base memory model, for downstream analyses
// that need the same control-flow and aliasing foundation (the
// error-bound analysis in internal/errbound). It exposes the supergraph
// built by build(): intra-procedural edges plus CALL edges into callee
// entries and RET edges back to every call-site continuation.
type Graph struct {
	a *analysis
}

// BuildGraph returns the supergraph and memory model of m: the one that
// Analyze and NewFlagAnalysis share, built on the module's first use.
func BuildGraph(m *prog.Module) (*Graph, error) {
	a, err := graph(m)
	if err != nil {
		return nil, err
	}
	return &Graph{a: a}, nil
}

// Module returns the analyzed module.
func (g *Graph) Module() *prog.Module { return g.a.mod }

// Len is the number of instructions in the supergraph.
func (g *Graph) Len() int { return len(g.a.instrs) }

// Instr returns instruction i.
func (g *Graph) Instr(i int) isa.Instr { return g.a.instrs[i] }

// Index maps an instruction address to its supergraph index.
func (g *Graph) Index(addr uint64) (int, bool) {
	i, ok := g.a.idx[addr]
	return i, ok
}

// Entry returns the index of the module entry instruction.
func (g *Graph) Entry() (int, bool) {
	i, ok := g.a.idx[g.a.mod.Entry]
	return i, ok
}

// Succs returns the supergraph successors of instruction i.
func (g *Graph) Succs(i int) []int32 { return g.a.succs[i] }

// Preds returns the supergraph predecessors of instruction i.
func (g *Graph) Preds(i int) []int32 { return g.a.preds[i] }

// FuncOf returns the index (into Module().Funcs) of the function
// containing instruction i.
func (g *Graph) FuncOf(i int) int { return g.a.fnOf[i] }

// Reachable reports whether instruction i is reachable from the module
// entry in the static call graph.
func (g *Graph) Reachable(i int) bool { return g.a.reachable[i] }

// StableBase returns the detected data-base register, if any.
func (g *Graph) StableBase() (uint8, bool) {
	if g.a.stableBase < 0 {
		return 0, false
	}
	return uint8(g.a.stableBase), true
}

// CellKind classifies an abstract memory cell of the model.
type CellKind uint8

// Memory cell kinds.
const (
	// CellSlot is one 8-byte scalar slot at a fixed displacement off the
	// stable base; direct accesses to it resolve exactly (strong
	// updates are sound).
	CellSlot CellKind = iota
	// CellRegion is the indexed-access region rooted at a base
	// displacement outside any recorded array extent (always weak).
	CellRegion
	// CellExtent is one array's byte range from the module region
	// table (always weak: one element's store joins into the cell).
	CellExtent
	// CellSummary is the everything-else blob unresolved accesses hit.
	CellSummary
	// CellStack abstracts the PUSH/POP stack.
	CellStack
)

// MemCell describes one abstract cell. Off/Size give the data-segment
// byte range for CellSlot (Size 8) and CellExtent cells, letting callers
// seed initial abstract values from the module's data image; they are
// zero for the other kinds.
type MemCell struct {
	Kind CellKind
	Off  int32
	Size int32
}

// Cells enumerates the model's abstract memory cells. Indices into the
// returned slice are the cell ids MemCells yields.
func (g *Graph) Cells() []MemCell {
	a := g.a
	out := make([]MemCell, a.nLocs-nRegLocs)
	for d, s := range a.slotOf {
		out[s] = MemCell{Kind: CellSlot, Off: d, Size: 8}
	}
	for _, r := range a.regionOf {
		out[a.regionLoc(r)-nRegLocs] = MemCell{Kind: CellRegion}
	}
	out[a.summaryLoc()-nRegLocs] = MemCell{Kind: CellSummary}
	out[a.stackLoc()-nRegLocs] = MemCell{Kind: CellStack}
	for e, ext := range a.extents {
		out[a.extentLoc(e)-nRegLocs] = MemCell{Kind: CellExtent, Off: ext.off, Size: ext.end - ext.off}
	}
	return out
}

// MemCells resolves a memory operand to the cell ids it may touch, with
// the extent-precise model (distinct arrays in distinct cells). strong
// reports the access resolved exactly — a store may strongly update the
// returned cell(s) — which only holds for direct stable-base slot
// accesses. wide selects 16-byte accesses (MOVAPD); a wide strong access
// returns both covered slots in order.
func (g *Graph) MemCells(m isa.MemRef, wide bool) (cells []int, strong bool) {
	locs, direct := g.a.memLocsPrec(m, wide)
	cells = make([]int, len(locs))
	for i, l := range locs {
		cells[i] = l - nRegLocs
	}
	want := 1
	if wide {
		want = 2
	}
	return cells, direct && len(cells) == want
}

// SlotCell returns the cell id of the slot at displacement disp, if the
// model tracks one there.
func (g *Graph) SlotCell(disp int32) (int, bool) {
	s, ok := g.a.slotOf[disp]
	return s, ok
}
