package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/hl"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
)

// Pattern superinstructions must be invisible: a compiled run through
// fused ops leaves the machine the per-step interpreter leaves, down to
// the constituents that executed before a fault. These tests place an
// out-of-bounds memory operand at every fallible constituent of every
// pattern, expire step budgets and enter blocks mid-way around fused ops,
// and compare whole machines (plus dirty pages) against NoCompile runs.

// fusePatternNames names each pattern in test output.
var fusePatternNames = [numFusePatterns]string{
	fuseNone:          "none",
	fuseLoadImmMul:    "load+movri+imulr",
	fuseLoadImmAdd:    "load+movri+addr",
	fuseLoadImmSub:    "load+movri+subr",
	fuseLoadImmCmp:    "load+movri+cmpr",
	fuseIndex1Load:    "index-1d+movsd-load",
	fuseIndex1Store:   "index-1d+movsd-store",
	fuseIndex2Load:    "index-2d+movsd-load",
	fuseIndex2Store:   "index-2d+movsd-store",
	fuseLoadAddLoadSD: "load+addr+movsd-load",
	fuseAddLoadSD:     "addr+movsd-load",
	fuseImmLoadSD:     "movri+movsd-load",
	fuseImmStoreSD:    "movri+movsd-store",
	fuseLoadIncStore:  "load+addi+store",
	fuseConstSD:       "movri+movq-xmm",
	fuseFlagTest:      "movq-gpr+movrr+shri+cmpi",
	fuseStamp:         "movq-gpr+movri+andr+movri+orr+movq-xmm",
	fuseLoadOp:        "fp-load+arith",
	fuseArithChain:    "arith-chain",
	fuseArithStore:    "arith+movsd-store",
	fuseCvtStamp:      "cvtsd2ss+stamp",
	fuseLoadCmp:       "load+cmpr",
}

// guardName names the flag-test guard (guard.go) in pattern lists.
const guardName = "flag-test-guard"

// fuseCase is one instance of a pattern: build returns its constituents
// with the first memory operand based on register bA, the second on bB
// and the third on bC; fallible lists the constituents with memory
// operands, in order. The index-access patterns have one case per
// closure and adjust combination.
type fuseCase struct {
	p        fusePattern
	build    func(bA, bB, bC uint8) []isa.Instr
	fallible []int
}

var fuseCases = []fuseCase{
	{fuseLoadImmMul, func(bA, _, _ uint8) []isa.Instr { return loadImm(isa.IMULR, bA) }, []int{0}},
	{fuseLoadImmAdd, func(bA, _, _ uint8) []isa.Instr { return loadImm(isa.ADDR, bA) }, []int{0}},
	{fuseLoadImmSub, func(bA, _, _ uint8) []isa.Instr { return loadImm(isa.SUBR, bA) }, []int{0}},
	{fuseLoadImmCmp, func(bA, _, _ uint8) []isa.Instr { return loadImm(isa.CMPR, bA) }, []int{0}},
	{fuseLoadAddLoadSD, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bB, isa.RAX, 8, 16)),
		}
	}, []int{0, 2}},
	{fuseIndex1Load, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bB, isa.RAX, 8, 16)),
		}
	}, []int{0, 3}},
	{fuseAddLoadSD, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bA, isa.RAX, 8, 16)),
		}
	}, []int{1}},
	{fuseImmLoadSD, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(4)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bA, isa.RSI, 8, 32)),
		}
	}, []int{1}},
	{fuseIndex1Load, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 0)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bB, isa.RDX, 8, 32)),
		}
	}, []int{0, 1}},
	{fuseLoadIncStore, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 24)),
			isa.I(isa.ADDI, isa.Gpr(isa.RDX), isa.Imm(1)),
			isa.I(isa.STORE, isa.Mem(bB, 24), isa.Gpr(isa.RDX)),
		}
	}, []int{0, 2}},
	{fuseLoadOp, func(bA, _, _ uint8) []isa.Instr { return loadArith(isa.ADDSD, bA) }, []int{0}},
	{fuseLoadOp, func(bA, _, _ uint8) []isa.Instr { return loadArith(isa.SUBSD, bA) }, []int{0}},
	{fuseLoadOp, func(bA, _, _ uint8) []isa.Instr { return loadArith(isa.MULSD, bA) }, []int{0}},
	{fuseConstSD, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(int64(math.Float64bits(2.5)))),
			isa.I(isa.MOVQ, isa.Xmm(3), isa.Gpr(isa.RSI)),
		}
	}, nil},
	{fuseFlagTest, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
			isa.I(isa.MOVRR, isa.Gpr(isa.R14), isa.Gpr(isa.R15)),
			isa.I(isa.SHRI, isa.Gpr(isa.R14), isa.Imm(32)),
			isa.I(isa.CMPI, isa.Gpr(isa.R14), isa.Imm(int64(isa.ReplacedFlag))),
		}
	}, nil},
	{fuseStamp, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(0xFFFFFFFF)),
			isa.I(isa.ANDR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(int64(uint64(isa.ReplacedFlag)<<32))),
			isa.I(isa.ORR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		}
	}, nil},
	{fuseIndex1Load, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 24)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(3)),
			isa.I(isa.SUBR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(3), isa.MemIdx(bB, isa.RAX, 8, 0)),
		}
	}, []int{0, 3}},
	{fuseIndex1Store, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 8)),
			isa.I(isa.MOVSD, isa.MemIdx(bB, isa.RDX, 8, 32), isa.Xmm(2)),
		}
	}, []int{0, 1}},
	{fuseIndex1Store, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(2)),
			isa.I(isa.SUBR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.MemIdx(bB, isa.RAX, 8, 64), isa.Xmm(1)),
		}
	}, []int{0, 3}},
	{fuseIndex2Load, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(1)),
			isa.I(isa.SUBR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(6)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.LOAD, isa.Gpr(isa.RCX), isa.Mem(bB, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RDX), isa.Imm(2)),
			isa.I(isa.ADDR, isa.Gpr(isa.RCX), isa.Gpr(isa.RDX)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bC, isa.RAX, 8, 32)),
		}
	}, []int{0, 5, 9}},
	{fuseIndex2Load, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RSI), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RDI), isa.Imm(9)),
			isa.I(isa.IMULR, isa.Gpr(isa.RSI), isa.Gpr(isa.RDI)),
			isa.I(isa.LOAD, isa.Gpr(isa.RDI), isa.Mem(bB, 8)),
			isa.I(isa.ADDR, isa.Gpr(isa.RSI), isa.Gpr(isa.RDI)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bC, isa.RSI, 8, 0)),
		}
	}, []int{0, 3, 5}},
	{fuseIndex2Load, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(2)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(5)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(3)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(3), isa.MemIdx(bB, isa.RAX, 8, 8)),
		}
	}, []int{0, 7}},
	{fuseIndex2Store, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.LOAD, isa.Gpr(isa.RCX), isa.Mem(bB, 24)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RDX), isa.Imm(40)),
			isa.I(isa.SUBR, isa.Gpr(isa.RCX), isa.Gpr(isa.RDX)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.MemIdx(bC, isa.RAX, 8, 32), isa.Xmm(1)),
		}
	}, []int{0, 3, 7}},
	{fuseIndex2Store, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(1)),
			isa.I(isa.SUBR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(4)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(0)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.MemIdx(bB, isa.RAX, 8, 0), isa.Xmm(2)),
		}
	}, []int{0, 7}},
	// The FP families, after every earlier case so the fuzz selectors
	// that pick cases by index decode as before.
	{fuseImmStoreSD, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(4)),
			isa.I(isa.MOVSD, isa.MemIdx(bA, isa.RSI, 8, 32), isa.Xmm(1)),
		}
	}, []int{1}},
	{fuseLoadOp, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVSD, isa.Xmm(2), isa.Mem(bA, 32)),
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.ADDSD, isa.Xmm(1), isa.Xmm(3)),
			isa.I(isa.SUBSD, isa.Xmm(2), isa.Xmm(1)),
			isa.I(isa.MOVSD, isa.Mem(bB, 40), isa.Xmm(2)),
		}
	}, []int{0, 4}},
	{fuseLoadOp, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(4)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bA, isa.RSI, 8, 0)),
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(2)),
		}
	}, []int{1}},
	{fuseLoadOp, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(1)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bB, isa.RAX, 8, 32)),
			isa.I(isa.ADDSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.DIVSD, isa.Xmm(1), isa.Xmm(3)),
			isa.I(isa.MOVSD, isa.Mem(bC, 16), isa.Xmm(1)),
		}
	}, []int{0, 3, 6}},
	{fuseLoadOp, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(5)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(3)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bB, isa.RAX, 8, 8)),
			isa.I(isa.MULSD, isa.Xmm(2), isa.Xmm(1)),
			isa.I(isa.SUBSD, isa.Xmm(3), isa.Xmm(2)),
			isa.I(isa.MAXSD, isa.Xmm(3), isa.Xmm(0)),
			isa.I(isa.MOVSD, isa.Mem(bC, 8), isa.Xmm(3)),
		}
	}, []int{0, 5, 9}},
	{fuseLoadOp, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RSI), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RDI), isa.Imm(9)),
			isa.I(isa.IMULR, isa.Gpr(isa.RSI), isa.Gpr(isa.RDI)),
			isa.I(isa.LOAD, isa.Gpr(isa.RDI), isa.Mem(bB, 8)),
			isa.I(isa.ADDR, isa.Gpr(isa.RSI), isa.Gpr(isa.RDI)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bC, isa.RSI, 8, 0)),
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(2)),
		}
	}, []int{0, 3, 5}},
	{fuseLoadOp, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bA, isa.RAX, 8, 16)),
			isa.I(isa.ADDSD, isa.Xmm(3), isa.Xmm(1)),
		}
	}, []int{1}},
	{fuseLoadOp, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bB, isa.RAX, 8, 16)),
			isa.I(isa.MULSD, isa.Xmm(3), isa.Xmm(1)),
			isa.I(isa.MOVSD, isa.Mem(bC, 24), isa.Xmm(3)),
		}
	}, []int{0, 2, 4}},
	{fuseLoadOp, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(int64(math.Float64bits(2.5)))),
			isa.I(isa.MOVQ, isa.Xmm(3), isa.Gpr(isa.RSI)),
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(3)),
			isa.I(isa.MINSD, isa.Xmm(1), isa.Xmm(2)),
		}
	}, nil},
	{fuseArithChain, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.SUBSD, isa.Xmm(3), isa.Xmm(1)),
			isa.I(isa.ADDSD, isa.Xmm(1), isa.Xmm(3)),
		}
	}, nil},
	{fuseArithStore, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.SUBSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.MOVSD, isa.Mem(bA, 16), isa.Xmm(1)),
		}
	}, []int{1}},
	{fuseArithStore, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MULSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(2)),
			isa.I(isa.MOVSD, isa.MemIdx(bA, isa.RSI, 8, 8), isa.Xmm(1)),
		}
	}, []int{2}},
	{fuseArithStore, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.ADDSD, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.DIVSD, isa.Xmm(1), isa.Xmm(3)),
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 8)),
			isa.I(isa.MOVSD, isa.MemIdx(bB, isa.RDX, 8, 32), isa.Xmm(1)),
		}
	}, []int{2, 3}},
	{fuseArithStore, func(bA, bB, bC uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MULSD, isa.Xmm(2), isa.Xmm(3)),
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.LOAD, isa.Gpr(isa.RCX), isa.Mem(bB, 24)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RDX), isa.Imm(40)),
			isa.I(isa.SUBR, isa.Gpr(isa.RCX), isa.Gpr(isa.RDX)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.MemIdx(bC, isa.RAX, 8, 32), isa.Xmm(2)),
		}
	}, []int{1, 4, 8}},
	{fuseArithStore, func(bA, bB, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.ADDSD, isa.Xmm(2), isa.Xmm(1)),
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(4)),
			isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(0)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.MemIdx(bB, isa.RAX, 8, 0), isa.Xmm(2)),
		}
	}, []int{1, 6}},
	{fuseCvtStamp, func(_, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.CVTSD2SS, isa.Xmm(1), isa.Xmm(2)),
			isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(0xFFFFFFFF)),
			isa.I(isa.ANDR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(int64(uint64(isa.ReplacedFlag)<<32))),
			isa.I(isa.ORR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		}
	}, nil},
	{fuseLoadCmp, func(bA, _, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.R9), isa.Mem(bA, 8)),
			isa.I(isa.CMPR, isa.Gpr(isa.RAX), isa.Gpr(isa.R9)),
		}
	}, []int{0}},
}

func loadImm(op isa.Op, bA uint8) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
		isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
		isa.I(op, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
	}
}

func loadArith(op isa.Op, bA uint8) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.MOVSD, isa.Xmm(2), isa.Mem(bA, 32)),
		isa.I(op, isa.Xmm(1), isa.Xmm(2)),
	}
}

// fuseData is the data segment of the fault-parity programs: small
// integers at offsets 0..31 (array indices) and doubles after them.
func fuseData() []byte {
	d := make([]byte, 256)
	binary.LittleEndian.PutUint64(d[0:], 1)
	binary.LittleEndian.PutUint64(d[8:], 5)
	binary.LittleEndian.PutUint64(d[24:], 41)
	for off := 32; off+8 <= len(d); off += 8 {
		binary.LittleEndian.PutUint64(d[off:], math.Float64bits(float64(off)/16+0.125))
	}
	return d
}

// seedMachine gives m a deterministic register file: the base registers
// R8..R13 point into the data segment, the rest hold small integers and
// doubles (xmm1 a flagged single, so the flag tests see both outcomes
// across cases).
func seedMachine(m *Machine, oob map[uint8]bool) {
	for r := range m.GPR {
		if r != int(isa.RSP) {
			m.GPR[r] = uint64(r + 2)
		}
	}
	for _, r := range []uint8{isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13} {
		m.GPR[r] = prog.DataBase
		if oob[r] {
			m.GPR[r] = 1 << 40
		}
	}
	for x := range m.XMM {
		m.XMM[x] = [2]uint64{math.Float64bits(float64(x) + 0.5), uint64(x) * 3}
	}
	m.XMM[1][0] = uint64(isa.ReplacedFlag)<<32 | uint64(math.Float32bits(1.75))
}

// bodySpans returns the instruction span of every body micro-op of b.
func bodySpans(c *compiled, b *block) []int32 {
	spans := make([]int32, len(b.body))
	for j := range spans {
		spans[j] = c.opStart(b, int32(j+1)) - c.opStart(b, int32(j))
	}
	return spans
}

// matchFuse reports the longest pattern whose constituents start at
// instrs[i], and how many instructions it spans, or fuseNone.
func matchFuse(instrs []isa.Instr, i int, noIndex bool) (fusePattern, int) {
	long, short := matchAt(window(instrs, i), noIndex)
	if long.p != fuseNone {
		return long.p, long.n
	}
	return short.p, short.n
}

// fusedAt returns the pattern of the superinstruction of instrs at index
// i spanning n instructions.
func fusedAt(instrs []isa.Instr, i, n int32) fusePattern {
	long, short := matchAt(window(instrs, int(i)), false)
	if long.p != fuseNone && long.n == int(n) {
		return long.p
	}
	if short.n == int(n) {
		return short.p
	}
	return fuseNone
}

// hasFused reports whether b's body holds a superinstruction.
func hasFused(c *compiled, b *block) bool {
	return slices.ContainsFunc(bodySpans(c, b), func(n int32) bool { return n > 1 })
}

// sameDirtyPages compares the dirty-page sets of two tracked machines.
func sameDirtyPages(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	if !slices.Equal(a.track.dirty, b.track.dirty) {
		t.Errorf("%s: dirty pages differ", label)
	}
}

func TestFusedFaultParity(t *testing.T) {
	for _, fc := range fuseCases {
		for _, halt := range []bool{true, false} {
			fusedFaultParity(t, fc, halt)
		}
	}
}

// fusedFaultParity runs one case's program, ended by HALT or running off
// the code segment, clean and faulting at each fallible constituent.
func fusedFaultParity(t *testing.T, fc fuseCase, halt bool) {
	name := fmt.Sprintf("%s (halt %v)", fusePatternNames[fc.p], halt)
	// Two instances in one block, each after a NOP, so the fused ops sit
	// at body indices 1 and 3 with instruction offsets 1 and n+2.
	first := fc.build(isa.R8, isa.R9, isa.R10)
	second := fc.build(isa.R11, isa.R12, isa.R13)
	n := len(first)
	instrs := []isa.Instr{isa.I(isa.NOP)}
	instrs = append(instrs, first...)
	instrs = append(instrs, isa.I(isa.NOP))
	instrs = append(instrs, second...)
	if halt {
		instrs = append(instrs, isa.I(isa.HALT))
	}
	f := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("fuse", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	b := &lp.compiled.blocks[0]
	if got, want := bodySpans(lp.compiled, b), []int32{1, int32(n), 1, int32(n)}; !slices.Equal(got, want) {
		t.Fatalf("%s: body spans %v, want %v", name, got, want)
	}

	// Scenario -1 runs clean; the others fault at one constituent of one
	// instance.
	type scenario struct {
		inst, k int
		oob     uint8
	}
	scenarios := []scenario{{inst: -1}}
	for inst, bases := range [][3]uint8{{isa.R8, isa.R9, isa.R10}, {isa.R11, isa.R12, isa.R13}} {
		for mi, k := range fc.fallible {
			scenarios = append(scenarios, scenario{inst, k, bases[mi]})
		}
	}
	for _, sc := range scenarios {
		label := fmt.Sprintf("%s: instance %d constituent %d", name, sc.inst, sc.k)
		oob := map[uint8]bool{sc.oob: sc.inst >= 0}
		run := func(noCompile bool) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.TrackDirtyPages()
			seedMachine(m, oob)
			return engineResult{m, m.Run()}
		}
		compiled, interp := run(false), run(true)
		diffMachines(t, label, compiled, interp)
		sameDirtyPages(t, label, compiled.m, interp.m)
		if compiled.m.faultOff != 0 {
			t.Errorf("%s: faultOff left at %d", label, compiled.m.faultOff)
		}
		var f *Fault
		if sc.inst < 0 {
			if halt && (compiled.err != nil || !compiled.m.Halted()) {
				t.Errorf("%s: clean run ended with %v", label, compiled.err)
			}
			if !halt && (!errors.As(compiled.err, &f) || f.Kind != FaultBadPC) {
				t.Errorf("%s: clean run ended with %v, want falling off the code", label, compiled.err)
			}
			continue
		}
		if !errors.As(compiled.err, &f) || f.Kind != FaultMemOOB {
			t.Fatalf("%s: got %v, want a memory fault", label, compiled.err)
		}
		idx := 1 + sc.k
		if sc.inst == 1 {
			idx += n + 1
		}
		if want := lp.instrs[idx].Addr; f.PC != want || compiled.m.PC() != want {
			t.Errorf("%s: fault at %#x (pc %#x), want %#x", label, f.PC, compiled.m.PC(), want)
		}
	}
}

// fuseLoopProgram is a small kernel in the shape of hl's NAS codes: a
// doubly nested loop over a row-major 2-D array with index arithmetic,
// loads feeding FP operations and FP constants — every kernel-code
// pattern fires in it or in fuseLoopLegacy.
func fuseLoopProgram(t *testing.T) *prog.Module {
	t.Helper()
	const n = 5
	p := hl.New("fuseloop", hl.ModeF64)
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = float64(i%7) + 0.25
	}
	a := p.ArrayInit("a", vals)
	s := p.ScalarInit("s", 1)
	i, j := p.Int("i"), p.Int("j")
	at := func(r, c hl.IExpr) hl.Expr { return hl.At(a, hl.IAdd(hl.IMul(r, hl.IConst(n)), c)) }
	f := p.Func("main")
	f.For(i, hl.IConst(0), hl.IConst(n), func() {
		f.For(j, hl.IConst(0), hl.IConst(n), func() {
			f.Set(s, hl.Add(hl.Load(s), hl.Mul(at(hl.ILoad(i), hl.ILoad(j)), hl.Const(0.5))))
			f.Store(a, hl.IAdd(hl.IMul(hl.ILoad(j), hl.IConst(n)), hl.ILoad(i)),
				hl.Sub(at(hl.ILoad(j), hl.ILoad(i)), hl.Load(s)))
			f.Set(s, hl.Sub(hl.Load(s), at(hl.ISub(hl.ILoad(i), hl.IConst(0)), hl.ILoad(j))))
			f.Set(s, hl.Add(hl.Mul(hl.Const(0.75), hl.Load(s)), hl.Load(s)))
			f.Set(s, hl.Sub(hl.Load(s), at(hl.IAdd(hl.ILoad(j), hl.IConst(0)), hl.ILoad(i))))
			f.Set(s, hl.Add(hl.Mul(hl.At(a, hl.IConst(3)), hl.At(a, hl.ILoad(j))),
				hl.At(a, hl.IAdd(hl.ILoad(i), hl.IConst(2)))))
			f.Set(s, hl.Mul(hl.Load(s), at(hl.ILoad(i), hl.IMul(hl.ILoad(j), hl.IConst(1)))))
			f.Store(a, hl.ISub(hl.ILoad(j), hl.IConst(0)), hl.Mul(hl.Load(s), hl.Const(0.125)))
			f.Set(s, hl.Sqrt(hl.Sub(hl.Mul(hl.Load(s), hl.Const(0.5)), hl.Mul(hl.Load(s), hl.Load(s)))))
		})
	})
	f.Out(hl.Load(s))
	f.Halt()
	mod, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// fuseLoopLegacy is fuseLoopProgram's loop with its index expressions
// written in forms the index-access family does not match — an adjusted
// row term added to a loaded column, a constant row — so the shorter
// patterns that family subsumes on hl's usual shapes still run in a loop:
// LOAD; MOVRI; ADDR|SUBR and LOAD; ADDR; MOVSD. It also stores to a
// constant index, and its inner loop tests against a loaded bound (LOAD;
// CMPR).
func fuseLoopLegacy(t *testing.T) *prog.Module {
	t.Helper()
	const n = 5
	p := hl.New("fuseloop-legacy", hl.ModeF64)
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = float64(i%5) + 0.5
	}
	a := p.ArrayInit("a", vals)
	s := p.ScalarInit("s", 1)
	i, j, bound := p.Int("i"), p.Int("j"), p.IntInit("n", n)
	f := p.Func("main")
	f.For(i, hl.IConst(0), hl.IConst(n), func() {
		f.For(j, hl.IConst(0), hl.ILoad(bound), func() {
			f.Set(s, hl.Add(hl.At(a, hl.IAdd(hl.IAdd(hl.ILoad(i), hl.IConst(1)), hl.ILoad(j))),
				hl.At(a, hl.IAdd(hl.ISub(hl.ILoad(j), hl.IConst(0)), hl.ILoad(i)))))
			f.Set(s, hl.Mul(hl.Load(s), hl.At(a, hl.IAdd(hl.IMul(hl.IConst(2), hl.IConst(n)), hl.ILoad(j)))))
			f.Store(a, hl.IConst(2), hl.Load(s))
		})
	})
	f.Out(hl.Load(s))
	f.Halt()
	mod, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// fuseLoopStray is a loop over a double snippet's flag-test diamond that
// a stray branch into its join keeps unguarded, so the standalone
// flag-test fold runs in a loop; the arm runs in the first iteration.
func fuseLoopStray(t *testing.T) *prog.Module {
	t.Helper()
	flag := int64(isa.ReplacedFlag)
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(flag<<32|int64(math.Float32bits(1.5)))), // 0
		isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),                                      // 1
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(0)),                                     // 2
		isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),                                      // 3: loop head
		isa.I(isa.MOVRR, isa.Gpr(isa.R14), isa.Gpr(isa.R15)),                               // 4
		isa.I(isa.SHRI, isa.Gpr(isa.R14), isa.Imm(32)),                                     // 5
		isa.I(isa.CMPI, isa.Gpr(isa.R14), isa.Imm(flag)),                                   // 6
		isa.I(isa.JNE, isa.Imm(0)),                                                         // 7: to the join
		isa.I(isa.CVTSS2SD, isa.Xmm(1), isa.Xmm(1)),                                        // 8: the arm
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)),                                           // 9: the join
		isa.I(isa.ADDI, isa.Gpr(isa.RBX), isa.Imm(1)),                                      // 10
		isa.I(isa.CMPI, isa.Gpr(isa.RBX), isa.Imm(4)),                                      // 11
		isa.I(isa.JL, isa.Imm(0)),                                                          // 12: to the head
		isa.I(isa.CMPI, isa.Gpr(isa.RBX), isa.Imm(100)),                                    // 13
		isa.I(isa.JE, isa.Imm(0)),                                                          // 14: the stray branch, never taken
		isa.I(isa.HALT),                                                                    // 15
	}}
	mod, err := prog.Build("stray", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	for at, to := range map[int]int{7: 9, 12: 3, 14: 9} {
		f.Instrs[at].A.Imm = int64(f.Instrs[to].Addr)
	}
	return mod
}

// fuseLoopVariants returns the loop kernel as built and wrapped all
// double and all single, so the snippet patterns run inside loops too,
// plus its legacy-index form and the unguarded diamond of
// fuseLoopStray.
func fuseLoopVariants(t *testing.T) map[string]*prog.Module {
	t.Helper()
	mod := fuseLoopProgram(t)
	out := map[string]*prog.Module{"base": mod, "legacy": fuseLoopLegacy(t), "stray": fuseLoopStray(t)}
	for _, p := range []config.Precision{config.Double, config.Single} {
		c, err := config.FromModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		c.SetAll(p)
		inst, err := replace.Instrument(mod, c, replace.InstrumentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[p.String()] = inst
	}
	return out
}

// firedPatterns reports, by name, the superinstructions in blocks a
// finished compiled run executed: each fused op's pattern, for a folded
// terminator both the compare's pattern and its fold (foldName), and for
// a guard the guard, its flag test and the flag-test fold, plus the
// patterns compiled into its arm when the arm ran.
func firedPatterns(lp *Program, counts []uint64) map[string]bool {
	fired := map[string]bool{}
	c := lp.compiled
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if counts[b.start] == 0 {
			continue
		}
		for j, span := range bodySpans(c, b) {
			i := c.opStart(b, int32(j))
			if isGuard(c, i, span) {
				fired[guardName] = true
				fired[fusePatternNames[fuseFlagTest]] = true
				fired[foldName(fuseFlagTest)] = true
				if counts[i+guardArm] > 0 {
					arm := lp.instrs[i+guardArm : i+span]
					for k := 0; k < len(arm); {
						p, n := matchFuse(arm, k, false)
						if p == fuseNone {
							n = 1
						}
						if n > 1 {
							fired[fusePatternNames[p]] = true
						}
						k += n
					}
				}
				continue
			}
			if span > 1 {
				fired[fusePatternNames[fusedAt(lp.instrs, i, span)]] = true
			}
		}
		if b.fold != nil {
			i := c.opStart(b, int32(len(b.body)))
			p := fusedAt(lp.instrs, i, b.start+b.n-1-i)
			fired[fusePatternNames[p]] = true
			fired[foldName(p)] = true
		}
	}
	return fired
}

// isGuard reports whether c's superinstruction at index i spanning n
// instructions is a guard.
func isGuard(c *compiled, i, n int32) bool {
	k := sort.Search(len(c.fused), func(k int) bool { return c.fused[k].at >= i })
	for ; k < len(c.fused) && c.fused[k].at == i; k++ {
		if c.fused[k].n == n && c.fused[k].guard != nil {
			return true
		}
	}
	return false
}

// foldName names the fold of compare pattern p into its branch.
func foldName(p fusePattern) string { return fusePatternNames[p] + "+jcc" }

// fuseNames lists every pattern, fold and the guard by name.
func fuseNames() []string {
	names := slices.Clone(fusePatternNames[fuseNone+1:])
	return append(names, foldName(fuseLoadImmCmp), foldName(fuseLoadCmp), foldName(fuseFlagTest), guardName)
}

// fuseLoopPrograms links every fuseLoopVariants module and assembles the
// loop kernel's stable layout as the fork-point engine does, so FP
// arithmetic alone in a slot meets the loads, arithmetic and stores
// around it: every site bare, wrapped and bare sites alternating (a
// wrapped site's operation begins a block, so the bare arithmetic after
// it chains), and mixed variants.
func fuseLoopPrograms(t *testing.T) map[string]*Program {
	t.Helper()
	out := map[string]*Program{}
	for name, mod := range fuseLoopVariants(t) {
		lp, err := Link(mod)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = lp
	}
	il, sites := stableLinker(t, fuseLoopProgram(t))
	chs := agreementChoices(sites, rand.New(rand.NewSource(28)))[replace.VariantBare:]
	for phase := 0; phase < 2; phase++ {
		ch := make([]int, len(sites))
		for k := range ch {
			if k%2 == phase {
				ch[k] = replace.VariantBare
			}
		}
		chs = append(chs, ch)
	}
	for ci, ch := range chs {
		lp, err := il.Assemble(nil, ch)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("assembled %d", ci)] = lp
	}
	return out
}

func TestFusedLoopBudgetAndMidBlockEntry(t *testing.T) {
	fired := map[string]bool{}
	for name, lp := range fuseLoopPrograms(t) {
		full := lp.NewMachine()
		if err := full.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for p := range firedPatterns(lp, full.Counts()) {
			fired[p] = true
		}

		// Budgets expiring at (nearly) every step of the first blocks and
		// sparsely through the rest of the run.
		r := rand.New(rand.NewSource(14))
		budgets := []uint64{}
		for max := uint64(1); max <= 120; max++ {
			budgets = append(budgets, max)
		}
		for k := 0; k < 40; k++ {
			budgets = append(budgets, 1+uint64(r.Int63n(int64(full.Steps))))
		}
		for _, max := range budgets {
			run := func(noCompile bool) engineResult {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				m.MaxSteps = max
				m.TrackDirtyPages()
				return engineResult{m, m.Run()}
			}
			a, b := run(false), run(true)
			label := fmt.Sprintf("%s: max=%d", name, max)
			diffMachines(t, label, a, b)
			sameDirtyPages(t, label, a.m, b.m)
		}

		// Mid-block entry: partial Steps before Run land inside blocks
		// (and inside fused spans) before the compiled tier takes over.
		for pre := 0; pre < 80; pre++ {
			run := func(noCompile bool) engineResult {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				for s := 0; s < pre; s++ {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return engineResult{m, m.Run()}
			}
			diffMachines(t, fmt.Sprintf("%s: pre=%d", name, pre), run(false), run(true))
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	for _, p := range fuseNames() {
		if !fired[p] {
			t.Errorf("pattern %s never fired in the loop kernel", p)
		}
	}
}

// TestFusePatternMatching pins matchFuse: each case's constituents match
// exactly its own pattern over all of them, a proper prefix of them
// matches at most a pattern no longer than the prefix, and every pattern
// has a case.
func TestFusePatternMatching(t *testing.T) {
	cased := map[fusePattern]bool{}
	for _, fc := range fuseCases {
		cased[fc.p] = true
		if fusePatternNames[fc.p] == "" {
			t.Errorf("pattern %d has no name", fc.p)
		}
		c := fc.build(isa.R8, isa.R9, isa.R10)
		if got, n := matchFuse(c, 0, false); got != fc.p || n != len(c) {
			t.Errorf("%s: matched %s over %d of %d", fusePatternNames[fc.p], fusePatternNames[got], n, len(c))
		}
		for k := 1; k < len(c); k++ {
			if got, n := matchFuse(c[:k], 0, false); got != fuseNone && n > k {
				t.Errorf("%s: prefix of %d matched %s", fusePatternNames[fc.p], k, fusePatternNames[got])
			}
		}
	}
	for p := fuseNone + 1; p < numFusePatterns; p++ {
		if !cased[p] {
			t.Errorf("pattern %s has no fault-parity case", fusePatternNames[p])
		}
	}
}

// TestFuseIndexAccessRejectsAliasing pins the aliasing the index-access
// matcher refuses: each program is an index-access shape whose registers
// alias so that a constituent reads a register the fused closure would
// hold in a local. None may match the family; each still runs identically
// on both tiers through whatever shorter patterns match it.
func TestFuseIndexAccessRejectsAliasing(t *testing.T) {
	load := func(r uint8, ref isa.Operand) isa.Instr { return isa.I(isa.LOAD, isa.Gpr(r), ref) }
	movri := func(r uint8, k int64) isa.Instr { return isa.I(isa.MOVRI, isa.Gpr(r), isa.Imm(k)) }
	rr := func(op isa.Op, d, s uint8) isa.Instr { return isa.I(op, isa.Gpr(d), isa.Gpr(s)) }
	ldsd := func(ref isa.Operand) isa.Instr { return isa.I(isa.MOVSD, isa.Xmm(1), ref) }
	stsd := func(ref isa.Operand) isa.Instr { return isa.I(isa.MOVSD, ref, isa.Xmm(1)) }
	rows := func(col ...isa.Instr) []isa.Instr {
		return append([]isa.Instr{load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RCX, 6), rr(isa.IMULR, isa.RAX, isa.RCX)}, col...)
	}
	a8 := isa.MemIdx(isa.R9, isa.RAX, 8, 32)
	cases := map[string][]isa.Instr{
		"adjust onto itself":              {load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RAX, 3), rr(isa.ADDR, isa.RAX, isa.RAX), ldsd(a8)},
		"adjust of another register":      {load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RCX, 3), rr(isa.ADDR, isa.RDX, isa.RCX), ldsd(a8)},
		"access not indexed by the index": {load(isa.RAX, isa.Mem(isa.R8, 8)), ldsd(isa.MemIdx(isa.R9, isa.RCX, 8, 32))},
		"access unindexed":                {load(isa.RAX, isa.Mem(isa.R8, 8)), ldsd(isa.Mem(isa.RAX, 32))},
		"access based on the index":       {load(isa.RAX, isa.Mem(isa.R8, 8)), stsd(isa.MemIdx(isa.RAX, isa.RAX, 8, 32))},
		"access based on the adjust":      {load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RCX, 3), rr(isa.SUBR, isa.RAX, isa.RCX), ldsd(isa.MemIdx(isa.RCX, isa.RAX, 8, 32))},
		"row length into the index":       {load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RAX, 6), rr(isa.IMULR, isa.RAX, isa.RAX), load(isa.RCX, isa.Mem(isa.R8, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)},
		"T adjust off the row register":   {load(isa.RAX, isa.Mem(isa.R8, 8)), movri(isa.RDX, 1), rr(isa.SUBR, isa.RAX, isa.RDX), movri(isa.RCX, 6), rr(isa.IMULR, isa.RAX, isa.RCX), load(isa.RCX, isa.Mem(isa.R8, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)},
		"column load into the index":      rows(load(isa.RAX, isa.Mem(isa.R8, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)),
		"column load based on the row":    rows(load(isa.RCX, isa.Mem(isa.RAX, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)),
		"column load based on itself":     rows(load(isa.RCX, isa.MemIdx(isa.R8, isa.RCX, 8, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)),
		"column adjust onto the row":      rows(load(isa.RCX, isa.Mem(isa.R8, 0)), movri(isa.RAX, 1), rr(isa.ADDR, isa.RCX, isa.RAX), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)),
		"column constant elsewhere":       rows(movri(isa.RDX, 3), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(a8)),
		"sum into the column":             rows(load(isa.RCX, isa.Mem(isa.R8, 0)), rr(isa.ADDR, isa.RCX, isa.RAX), ldsd(a8)),
		"access based on the column":      rows(load(isa.RCX, isa.Mem(isa.R8, 0)), rr(isa.ADDR, isa.RAX, isa.RCX), stsd(isa.MemIdx(isa.RCX, isa.RAX, 8, 32))),
		"access based on the col adjust":  rows(load(isa.RCX, isa.Mem(isa.R8, 0)), movri(isa.RDX, 1), rr(isa.ADDR, isa.RCX, isa.RDX), rr(isa.ADDR, isa.RAX, isa.RCX), ldsd(isa.MemIdx(isa.RDX, isa.RAX, 8, 32))),
	}
	for name, c := range cases {
		for i := range c {
			if p, _ := matchFuse(c, i, false); p >= fuseIndex1Load && p <= fuseIndex2Store {
				t.Errorf("%s: matched %s at %d", name, fusePatternNames[p], i)
			}
		}
		f := &prog.Func{Name: "main", Instrs: append(slices.Clone(c), isa.I(isa.HALT))}
		mod, err := prog.Build("alias", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
		if err != nil {
			t.Fatal(err)
		}
		lp, err := Link(mod)
		if err != nil {
			t.Fatal(err)
		}
		run := func(noCompile bool) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.TrackDirtyPages()
			seedMachine(m, nil)
			return engineResult{m, m.Run()}
		}
		a, b := run(false), run(true)
		diffMachines(t, name, a, b)
		sameDirtyPages(t, name, a.m, b.m)
	}
}

// TestFuseSnippetShapesOnly pins that the flag test and the stamp fuse
// only in the snippet compiler's register shape, whose closures compute
// in locals: every other register assignment of the same opcodes, with
// and without a conditional branch after the flag test, runs unfused and
// identically on both tiers.
func TestFuseSnippetShapesOnly(t *testing.T) {
	movq := func(d uint8) isa.Instr { return isa.I(isa.MOVQ, isa.Gpr(d), isa.Xmm(1)) }
	rr := func(op isa.Op, d, s uint8) isa.Instr { return isa.I(op, isa.Gpr(d), isa.Gpr(s)) }
	ri := func(op isa.Op, d uint8, k int64) isa.Instr { return isa.I(op, isa.Gpr(d), isa.Imm(k)) }
	flag := int64(isa.ReplacedFlag)
	test := func(d0, d1, s1, d2, a3 uint8) []isa.Instr {
		return []isa.Instr{movq(d0), rr(isa.MOVRR, d1, s1), ri(isa.SHRI, d2, 32), ri(isa.CMPI, a3, flag)}
	}
	stamp := func(d0, d1, d2, s2, d4, s5 uint8) []isa.Instr {
		return []isa.Instr{movq(d0), ri(isa.MOVRI, d1, 0xFFFFFFFF), rr(isa.ANDR, d2, s2),
			ri(isa.MOVRI, d1, flag<<32), rr(isa.ORR, d4, d1), isa.I(isa.MOVQ, isa.Xmm(2), isa.Gpr(s5))}
	}
	r15, r14, rax := uint8(isa.R15), uint8(isa.R14), uint8(isa.RAX)
	cases := map[string][]isa.Instr{
		"test copies itself":       test(r15, r15, r15, r15, r15),
		"test copies another":      test(r15, r14, rax, r14, r14),
		"test shifts another":      test(r15, r14, r15, rax, r14),
		"test compares another":    test(r15, r14, r15, r14, r15),
		"stamp into one register":  stamp(r15, r15, r15, r15, r15, r15),
		"stamp masks another":      stamp(r15, r14, rax, r14, r15, r15),
		"stamp ands the wrong way": stamp(r15, r14, r14, r15, r15, r15),
		"stamp ors another":        stamp(r15, r14, r15, r14, rax, r15),
		"stamp writes another":     stamp(r15, r14, r15, r14, r15, rax),
	}
	for name, c := range cases {
		if p, _ := matchFuse(c, 0, false); p == fuseFlagTest || p == fuseStamp {
			t.Errorf("%s: matched %s", name, fusePatternNames[p])
		}
		for _, branch := range []bool{false, true} {
			instrs := slices.Clone(c)
			if branch {
				instrs = append(instrs, isa.I(isa.JNE, isa.Imm(0)))
			}
			f := &prog.Func{Name: "main", Instrs: append(instrs, isa.I(isa.HALT))}
			mod, err := prog.Build("shape", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
			if err != nil {
				t.Fatal(err)
			}
			if branch {
				f.Instrs[len(c)].A.Imm = int64(f.Instrs[len(c)+1].Addr)
			}
			lp, err := Link(mod)
			if err != nil {
				t.Fatal(err)
			}
			run := func(noCompile bool) engineResult {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				seedMachine(m, nil)
				return engineResult{m, m.Run()}
			}
			diffMachines(t, fmt.Sprintf("%s (branch %v)", name, branch), run(false), run(true))
		}
	}
}

// TestFusedNeverSpansLeader puts a branch target inside a pattern: the
// loop re-enters at the MOVRI of LOAD; MOVRI; IMULR, so the block before
// it must run the LOAD alone, and the loop block fuses nothing across
// its own start.
func TestFusedNeverSpansLeader(t *testing.T) {
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(isa.R8, 8)), // 0
		isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),        // 1: loop head
		isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),  // 2
		isa.I(isa.ADDI, isa.Gpr(isa.RBX), isa.Imm(1)),         // 3
		isa.I(isa.CMPI, isa.Gpr(isa.RBX), isa.Imm(3)),         // 4
		isa.I(isa.JL, isa.Imm(0)),                             // 5: patched below
		isa.I(isa.HALT),                                       // 6
	}}
	mod, err := prog.Build("leader", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	f.Instrs[5].A.Imm = int64(f.Instrs[1].Addr)
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range lp.compiled.blocks {
		if b := &lp.compiled.blocks[bi]; hasFused(lp.compiled, b) {
			t.Errorf("block at %d holds a fused op %v", b.start, bodySpans(lp.compiled, b))
		}
	}
	run := func(noCompile bool) engineResult {
		m := lp.NewMachine()
		m.NoCompile = noCompile
		seedMachine(m, nil)
		m.GPR[isa.RBX] = 0
		return engineResult{m, m.Run()}
	}
	diffMachines(t, "leader inside a pattern", run(false), run(true))
}
