package cfg

import (
	"bytes"
	"reflect"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
	"fpmix/internal/vm"
)

// labelledAdd wraps an ADDSD in a three-instruction snippet containing a
// snippet-local branch.
func labelledAdd(in isa.Instr) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.CMPI, isa.Gpr(isa.R15), isa.Imm(0)),
		isa.I(isa.JE, isa.Imm(Label(2))),
		in,
	}
}

// TestRewriteSlottedIdentity: with no slots the skeleton is exactly the
// identity Rewrite's layout, debug labels included.
func TestRewriteSlottedIdentity(t *testing.T) {
	m := buildMod(t)
	m.Debug = map[uint64]string{m.Funcs[0].Instrs[5].Addr: "loop.f:1"}
	want, err := Rewrite(m, func(isa.Instr) ([]isa.Instr, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	got, sites, err := RewriteSlotted(m, func(isa.Instr) (*Slot, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("%d sites without slots", len(sites))
	}
	wb, err := prog.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := prog.Save(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("slot-free layout differs from the identity rewrite")
	}
	if !reflect.DeepEqual(got.Debug, want.Debug) {
		t.Errorf("debug labels differ: %v vs %v", got.Debug, want.Debug)
	}
}

func TestRewriteSlottedErrors(t *testing.T) {
	m := buildMod(t)
	at := func(seq ...isa.Instr) SlotExpander {
		return func(in isa.Instr) (*Slot, error) {
			if in.Op != isa.ADDSD {
				return nil, nil
			}
			return &Slot{Variants: []*Expansion{NewExpansion([]isa.Instr{in}), NewExpansion(seq)}}, nil
		}
	}
	for name, slotFor := range map[string]SlotExpander{
		"empty variant":              at(),
		"out-of-range snippet label": at(isa.I(isa.JMP, isa.Imm(Label(7)))),
		"unknown branch target":      at(isa.I(isa.JMP, isa.Imm(0x9999))),
		"missing variant 0":          func(isa.Instr) (*Slot, error) { return &Slot{Variants: []*Expansion{nil}}, nil },
		"no variants":                func(isa.Instr) (*Slot, error) { return &Slot{}, nil },
	} {
		if _, _, err := RewriteSlotted(m, slotFor); err == nil {
			t.Errorf("%s not rejected", name)
		}
	}
}

// TestRewriteSlottedSlotSize: a slot is sized to its longest variant, every
// variant is relocated to the slot base with snippet labels resolved, the
// shared code after it starts at the slot end, branches into the site land
// on the slot base, and the cached expansions stay unrelocated. Assembled
// with the long variant, the program runs exactly like Rewrite's.
func TestRewriteSlottedSlotSize(t *testing.T) {
	m := buildMod(t)
	add := m.Funcs[0].Instrs[5]
	long := NewExpansion(labelledAdd(add))
	slotFor := func(in isa.Instr) (*Slot, error) {
		if in.Op != isa.ADDSD {
			return nil, nil
		}
		return &Slot{Variants: []*Expansion{NewExpansion([]isa.Instr{in}), long, nil}}, nil
	}
	skel, sites, err := RewriteSlotted(m, slotFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0].OldAddr != add.Addr {
		t.Fatalf("sites = %+v, want the one ADDSD", sites)
	}
	s := sites[0]
	var size uint64
	for _, in := range long.Instrs {
		size += uint64(isa.EncodedSize(in))
	}
	if s.Size != size || size <= uint64(isa.EncodedSize(add)) {
		t.Fatalf("slot size %d, want the long variant's %d", s.Size, size)
	}
	if s.Variants[2] != nil {
		t.Error("an unavailable variant was materialized")
	}
	v := s.Variants[1]
	if v[0].Addr != s.Addr || v[1].A.Imm != int64(v[2].Addr) {
		t.Errorf("long variant not relocated to the slot base: %+v", v)
	}
	ins := skel.Funcs[0].Instrs
	if ins[5].Addr != s.Addr || ins[6].Addr != s.Addr+s.Size {
		t.Errorf("shared code after the slot at %#x, want slot end %#x", ins[6].Addr, s.Addr+s.Size)
	}
	if ins[8].Op != isa.JG || ins[8].A.Imm != int64(s.Addr) {
		t.Errorf("loop branch targets %#x, want the slot base %#x", ins[8].A.Imm, s.Addr)
	}
	if long.Instrs[0].Addr != 0 || long.Instrs[1].A.Imm != Label(2) {
		t.Error("relocation mutated the cached expansion")
	}
	_, again, err := RewriteSlotted(m, slotFor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, sites) {
		t.Error("a second layout from the same expansions differs")
	}

	il, err := vm.NewIncrementalLinker(skel, []vm.IncrementalSite{{Addr: s.Addr, Variants: s.Variants}})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := il.Assemble(nil, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	slotted := &vm.Machine{}
	slotted.ResetTo(lp)
	if err := slotted.Run(); err != nil {
		t.Fatal(err)
	}
	packed, err := Rewrite(m, func(in isa.Instr) ([]isa.Instr, error) {
		if in.Op != isa.ADDSD {
			return nil, nil
		}
		return labelledAdd(in), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vm.New(packed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slotted.Out, ref.Out) || slotted.Steps != ref.Steps || slotted.Cycles != ref.Cycles {
		t.Errorf("slotted run (out %v, %d steps, %d cycles) differs from Rewrite's (out %v, %d steps, %d cycles)",
			slotted.Out, slotted.Steps, slotted.Cycles, ref.Out, ref.Steps, ref.Cycles)
	}
}
