package vm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// findShadow returns the first shadow record for op, or nil.
func findShadow(recs []ShadowRecord, op isa.Op) *ShadowRecord {
	for i := range recs {
		if recs[i].Op == op {
			return &recs[i]
		}
	}
	return nil
}

func TestShadowObservesAccumulationDrift(t *testing.T) {
	// x = 1.0; x += 1e-9 three times. In the float32 shadow each add is
	// absorbed (1.0 + 1e-9 == 1.0), so the shadow drifts ~3e-9 behind the
	// reference — the per-instruction relative error the profile reports.
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	for i := 0; i < 3; i++ {
		instrs = append(instrs, isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)))
	}
	instrs = append(instrs,
		isa.I(isa.SYSCALL, isa.Imm(isa.SysOutF64)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var adds []ShadowRecord
	for _, r := range m.ShadowRecords() {
		if r.Op == isa.ADDSD {
			adds = append(adds, r)
		}
	}
	if len(adds) != 3 {
		t.Fatalf("ADDSD records = %d, want 3", len(adds))
	}
	// Drift accumulates: the i-th add sees ~i*1e-9 of error.
	for i, r := range adds {
		want := float64(i+1) * 1e-9
		if r.MaxRelErr < want/2 || r.MaxRelErr > want*2 {
			t.Errorf("add %d MaxRelErr = %g, want ~%g", i, r.MaxRelErr, want)
		}
		if r.Divergences != 0 {
			t.Errorf("add %d Divergences = %d, want 0", i, r.Divergences)
		}
	}
}

func TestShadowExactArithmeticIsClean(t *testing.T) {
	// 1.5 + 0.25 is exact in both precisions: zero error, but sampled.
	instrs := loadF64(0, 1.5)
	instrs = append(instrs, loadF64(1, 0.25)...)
	instrs = append(instrs,
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.MULSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []isa.Op{isa.ADDSD, isa.MULSD} {
		rec := findShadow(m.ShadowRecords(), op)
		if rec == nil {
			t.Fatalf("no %s record", op)
		}
		if rec.MaxRelErr != 0 {
			t.Errorf("%s MaxRelErr = %g, want 0", op, rec.MaxRelErr)
		}
	}
}

func TestShadowCancellationBits(t *testing.T) {
	// (1 + 2^-20) - 1 cancels ~20 leading bits.
	instrs := loadF64(0, 1+math.Ldexp(1, -20))
	instrs = append(instrs, loadF64(1, 1.0)...)
	instrs = append(instrs,
		isa.I(isa.SUBSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rec := findShadow(m.ShadowRecords(), isa.SUBSD)
	if rec == nil {
		t.Fatal("no SUBSD record")
	}
	if rec.MaxCancelBits < 19 || rec.MaxCancelBits > 21 {
		t.Errorf("MaxCancelBits = %d, want ~20", rec.MaxCancelBits)
	}
}

func TestShadowComparisonDivergence(t *testing.T) {
	// x = 1 + 1e-9 (shadow absorbs to 1.0), then compare against 1.0: the
	// reference sees x > 1, the shadow sees equality — a divergence.
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	instrs = append(instrs, loadF64(2, 1.0)...)
	instrs = append(instrs,
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.UCOMISD, isa.Xmm(0), isa.Xmm(2)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rec := findShadow(m.ShadowRecords(), isa.UCOMISD)
	if rec == nil {
		t.Fatal("no UCOMISD record")
	}
	if rec.Divergences != 1 {
		t.Errorf("Divergences = %d, want 1", rec.Divergences)
	}
	if rec.MaxRelErr != 1 {
		t.Errorf("MaxRelErr = %g, want 1 (divergence)", rec.MaxRelErr)
	}
}

func TestShadowTruncationDivergence(t *testing.T) {
	// 2^24+1 is not representable in float32; truncation of the shadow
	// yields 2^24, diverging from the reference.
	instrs := loadF64(0, 1<<24+1)
	instrs = append(instrs,
		isa.I(isa.CVTTSD2SI, isa.Gpr(isa.RAX), isa.Xmm(0)),
		isa.I(isa.SYSCALL, isa.Imm(isa.SysOutI64)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rec := findShadow(m.ShadowRecords(), isa.CVTTSD2SI)
	if rec == nil {
		t.Fatal("no CVTTSD2SI record")
	}
	if rec.Divergences != 1 {
		t.Errorf("Divergences = %d, want 1", rec.Divergences)
	}
	if m.Out[0].Bits != 1<<24+1 {
		t.Errorf("architectural result changed: %d", m.Out[0].Bits)
	}
}

func TestShadowFlowsThroughMemory(t *testing.T) {
	// Drift survives a store/load round trip through a memory slot: two
	// adds of 5e-8 are each absorbed by the float32 shadow (below half an
	// ulp at 1.0) but their double sum 1e-7 is above it, so a shadow
	// reseeded from the stored double would round to 1.00000012f while the
	// flowed shadow stays exactly 1.0f.
	base := int64(prog.DataBase)
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 5e-8)...)
	instrs = append(instrs, loadF64(2, 1.0)...)
	instrs = append(instrs,
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.MOVSD, isa.Mem(isa.RBX, 0), isa.Xmm(0)),
		isa.I(isa.MOVSD, isa.Xmm(3), isa.Mem(isa.RBX, 0)),
		isa.I(isa.SUBSD, isa.Xmm(3), isa.Xmm(2)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rec := findShadow(m.ShadowRecords(), isa.SUBSD)
	if rec == nil {
		t.Fatal("no SUBSD record")
	}
	// Flowed shadow: 1.0f - 1.0f = 0 against reference 1e-7 => rel ~1e-7.
	// A reseeded shadow would land within ~2e-8 of the reference.
	if rec.MaxRelErr < 5e-8 {
		t.Errorf("MaxRelErr = %g, want ~1e-7 (shadow drift lost through memory)", rec.MaxRelErr)
	}
}

func TestShadowInvalidateReseeds(t *testing.T) {
	// After an untracked write is invalidated, the shadow reseeds from the
	// stored double: no phantom drift.
	base := int64(prog.DataBase)
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	instrs = append(instrs,
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.MOVSD, isa.Mem(isa.RBX, 0), isa.Xmm(0)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	addr := uint64(base)
	if _, ok := m.shadow.mem.get(addr); !ok {
		t.Fatal("slot not shadowed after MOVSD store")
	}
	m.ShadowInvalidate(addr, 8)
	if _, ok := m.shadow.mem.get(addr); ok {
		t.Error("slot still shadowed after invalidate")
	}
}

func TestShadowArchitecturallyInvisible(t *testing.T) {
	// The same program with and without the shadow produces bit-identical
	// architectural state.
	instrs := loadF64(0, 1.0/3.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	instrs = append(instrs,
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.MULSD, isa.Xmm(0), isa.Xmm(0)),
		isa.I(isa.SQRTSD, isa.Xmm(0), isa.Xmm(0)),
		isa.I(isa.SYSCALL, isa.Imm(isa.SysOutF64)),
		isa.I(isa.HALT),
	)
	plain := mach(t, instrs)
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	shadowed := mach(t, instrs)
	shadowed.EnableShadow()
	if err := shadowed.Run(); err != nil {
		t.Fatal(err)
	}
	if plain.Out[0].Bits != shadowed.Out[0].Bits {
		t.Errorf("output bits differ: %#x vs %#x", plain.Out[0].Bits, shadowed.Out[0].Bits)
	}
	if plain.XMM != shadowed.XMM || plain.GPR != shadowed.GPR {
		t.Error("register state differs with shadow enabled")
	}
	if plain.Cycles != shadowed.Cycles || plain.Steps != shadowed.Steps {
		t.Error("cost model differs with shadow enabled")
	}
}

func TestShadowResetOnRewind(t *testing.T) {
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	instrs = append(instrs,
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.HALT),
	)
	f := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("t", []*prog.Func{f}, nil, prog.DataBase+1<<16, "main")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	m := lp.NewMachine()
	m.EnableShadow()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := m.ShadowRecords()
	if len(first) == 0 {
		t.Fatal("no records on first run")
	}
	m.ResetTo(lp)
	if len(m.ShadowRecords()) != 0 {
		t.Error("records survive rewind")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	second := m.ShadowRecords()
	if len(second) != len(first) || second[0].MaxRelErr != first[0].MaxRelErr {
		t.Errorf("rerun records differ: %+v vs %+v", second, first)
	}
}

// TestShadowMemPaged: the paged shadow memory behaves exactly like one
// map over every address class — 4-byte-aligned words inside memory
// (paged), unaligned addresses and addresses beyond memory (the map
// fallback), including the wrapped neighbors kill computes below address
// 0 — and snapshot copies restore exactly and stay independent.
func TestShadowMemPaged(t *testing.T) {
	const memSize = 3*pageSize + 100
	r := rand.New(rand.NewSource(20261016))
	addr := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return uint64(r.Intn(memSize/4)) * 4
		case 1:
			return uint64(r.Intn(memSize))
		case 2:
			return memSize + uint64(r.Intn(64))
		default:
			return 0 - 4*uint64(1+r.Intn(4))
		}
	}
	same := func(label string, sm *shadowMem, ref map[uint64]float32) {
		t.Helper()
		probe := func(a uint64) {
			got, ok := sm.get(a)
			want, wok := ref[a]
			if ok != wok || got != want {
				t.Fatalf("%s: get(%#x) = %v,%v, want %v,%v", label, a, got, ok, want, wok)
			}
		}
		for a := uint64(0); a < memSize+64; a++ {
			probe(a)
		}
		for a := range ref {
			probe(a)
		}
	}

	var sm, snap shadowMem
	sm.init(memSize)
	ref := map[uint64]float32{}
	var snapRef map[uint64]float32
	for i := 0; i < 20000; i++ {
		a := addr()
		if r.Intn(3) < 2 {
			v := r.Float32()
			sm.set(a, v)
			ref[a] = v
		} else {
			sm.del(a)
			delete(ref, a)
		}
		if i == 10000 {
			snap.copyFrom(&sm)
			snapRef = make(map[uint64]float32, len(ref))
			for k, v := range ref {
				snapRef[k] = v
			}
		}
	}
	same("after random ops", &sm, ref)
	same("snapshot untouched by later writes", &snap, snapRef)

	sm.copyFrom(&snap)
	same("restored", &sm, snapRef)
	sm.set(8, 42)
	sm.set(3, 43)
	sm.del(12)
	same("snapshot after restore-then-write", &snap, snapRef)

	sm.init(memSize)
	same("after init", &sm, map[uint64]float32{})
}

// TestShadowUnalignedSnapshotRoundTrip drives the same classes through
// the machine: an unaligned and an aligned shadowed store, invalidation
// and a store kill that drop them, and a snapshot restore that brings
// both back.
func TestShadowUnalignedSnapshotRoundTrip(t *testing.T) {
	base := int64(prog.DataBase)
	instrs := loadF64(0, 1.0)
	instrs = append(instrs, loadF64(1, 1e-9)...)
	instrs = append(instrs,
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.MOVSD, isa.Mem(isa.RBX, 2), isa.Xmm(0)),
		isa.I(isa.MOVSD, isa.Mem(isa.RBX, 16), isa.Xmm(0)),
		isa.I(isa.HALT),
	)
	m := mach(t, instrs)
	m.EnableShadow()
	m.MaxSteps = uint64(len(instrs) - 1) // stop before HALT
	if err := m.Run(); err == nil || err.(*Fault).Kind != FaultMaxSteps {
		t.Fatalf("run to the capture point: %v", err)
	}
	odd, even := uint64(base)+2, uint64(base)+16
	want, ok := m.shadow.mem.get(odd)
	if !ok {
		t.Fatal("unaligned slot not shadowed after MOVSD store")
	}
	if got, ok := m.shadow.mem.get(even); !ok || got != want {
		t.Fatalf("aligned slot shadow = %v,%v, want %v", got, ok, want)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Invalidate walks the 4-byte-aligned words of the range, so it drops
	// the aligned slot and leaves the unaligned one, as it always has.
	m.ShadowInvalidate(uint64(base), 32)
	if _, ok := m.shadow.mem.get(even); ok {
		t.Error("aligned slot still shadowed after invalidate")
	}
	if _, ok := m.shadow.mem.get(odd); !ok {
		t.Error("invalidate dropped the unaligned slot")
	}
	m.shadow.kill(odd)
	if _, ok := m.shadow.mem.get(odd); ok {
		t.Error("unaligned slot still shadowed after a store over it")
	}

	if err := m.RestoreFrom(snap); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{odd, even} {
		if got, ok := m.shadow.mem.get(a); !ok || got != want {
			t.Errorf("slot %#x after restore = %v,%v, want %v", a, got, ok, want)
		}
	}
	m.ShadowInvalidate(uint64(base), 32)
	if _, ok := snap.shadow.mem.get(even); !ok {
		t.Error("invalidate after restore reached into the snapshot")
	}
}

// TestShadowObservesCoversShadowStep keeps shadowObserves in step with
// shadowStep: the compiled shadow stream hooks only the opcodes
// shadowObserves lists, so shadowStep must leave the shadow state alone
// for every other opcode, in every operand shape.
func TestShadowObservesCoversShadowStep(t *testing.T) {
	gpr, xmm := isa.Gpr(isa.RAX), isa.Xmm(1)
	mem := isa.Mem(isa.RCX, 8)
	shapes := [][2]isa.Operand{
		{xmm, isa.Xmm(2)}, {xmm, mem}, {mem, xmm}, {gpr, xmm}, {xmm, gpr},
		{gpr, isa.Gpr(isa.RDX)}, {gpr, mem}, {mem, gpr}, {gpr, isa.Imm(3)}, {gpr, {}}, {xmm, {}}, {},
	}
	setup := func() *Machine {
		m := mach(t, []isa.Instr{isa.I(isa.NOP), isa.I(isa.HALT)})
		m.EnableShadow()
		r := rand.New(rand.NewSource(1))
		for i := range m.GPR {
			m.GPR[i] = prog.DataBase + 64
		}
		for x := range m.XMM {
			m.XMM[x] = [2]uint64{math.Float64bits(r.NormFloat64()), math.Float64bits(r.NormFloat64())}
			m.shadow.xmm[x] = [2]float32{float32(r.NormFloat64()), float32(r.NormFloat64())}
		}
		for a := uint64(prog.DataBase); a < prog.DataBase+128; a += 4 {
			m.shadow.mem.set(a, float32(r.NormFloat64()))
		}
		return m
	}
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		if shadowObserves(op) {
			continue
		}
		for _, sh := range shapes {
			in := isa.Instr{Op: op, A: sh[0], B: sh[1]}
			a, b := setup(), setup()
			a.shadowStep(&in)
			if !reflect.DeepEqual(a.shadow, b.shadow) {
				t.Errorf("shadowStep acts on %s %v, %v, but shadowObserves omits it", op, sh[0].Kind, sh[1].Kind)
			}
		}
	}
}
