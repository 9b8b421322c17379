package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"fpmix/internal/isa"
)

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if int(m.pcIdx) >= len(m.instrs) || m.pcIdx < 0 {
		return &Fault{Kind: FaultBadPC, PC: 0, Detail: "fell off code segment"}
	}
	in := &m.instrs[m.pcIdx]
	m.counts[m.pcIdx]++
	m.Steps++
	if m.injectAt != 0 {
		if err := m.injectCheck(in); err != nil {
			return err
		}
	}
	if m.shadow != nil {
		m.shadowStep(in)
	}
	m.Cycles += m.costs[m.pcIdx]

	next := m.pcIdx + 1

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
	case isa.SYSCALL:
		if err := m.syscall(in); err != nil {
			return err
		}

	case isa.MOVRI:
		m.GPR[in.A.Reg] = uint64(in.B.Imm)
	case isa.MOVRR:
		m.GPR[in.A.Reg] = m.GPR[in.B.Reg]
	case isa.LOAD:
		v, err := m.load(in, in.B.Mem, 8)
		if err != nil {
			return err
		}
		m.GPR[in.A.Reg] = v
	case isa.STORE:
		if err := m.store(in, in.A.Mem, m.GPR[in.B.Reg], 8); err != nil {
			return err
		}
	case isa.LEA:
		m.GPR[in.A.Reg] = m.ea(in.B.Mem)

	case isa.ADDR:
		m.GPR[in.A.Reg] += m.GPR[in.B.Reg]
	case isa.ADDI:
		m.GPR[in.A.Reg] += uint64(in.B.Imm)
	case isa.SUBR:
		m.GPR[in.A.Reg] -= m.GPR[in.B.Reg]
	case isa.SUBI:
		m.GPR[in.A.Reg] -= uint64(in.B.Imm)
	case isa.IMULR:
		m.GPR[in.A.Reg] = uint64(int64(m.GPR[in.A.Reg]) * int64(m.GPR[in.B.Reg]))
	case isa.IMULI:
		m.GPR[in.A.Reg] = uint64(int64(m.GPR[in.A.Reg]) * in.B.Imm)
	case isa.ANDR:
		m.GPR[in.A.Reg] &= m.GPR[in.B.Reg]
	case isa.ANDI:
		m.GPR[in.A.Reg] &= uint64(in.B.Imm)
	case isa.ORR:
		m.GPR[in.A.Reg] |= m.GPR[in.B.Reg]
	case isa.ORI:
		m.GPR[in.A.Reg] |= uint64(in.B.Imm)
	case isa.XORR:
		m.GPR[in.A.Reg] ^= m.GPR[in.B.Reg]
	case isa.XORI:
		m.GPR[in.A.Reg] ^= uint64(in.B.Imm)
	case isa.IDIVR:
		d := int64(m.GPR[in.B.Reg])
		if d == 0 {
			return m.fault(FaultMemOOB, in, "integer division by zero")
		}
		m.GPR[in.A.Reg] = uint64(int64(m.GPR[in.A.Reg]) / d)
	case isa.SHLI:
		m.GPR[in.A.Reg] <<= uint64(in.B.Imm) & 63
	case isa.SHRI:
		m.GPR[in.A.Reg] >>= uint64(in.B.Imm) & 63

	case isa.CMPR:
		m.setCmp(m.GPR[in.A.Reg], m.GPR[in.B.Reg])
	case isa.CMPI:
		m.setCmp(m.GPR[in.A.Reg], uint64(in.B.Imm))
	case isa.TESTR:
		m.setTest(m.GPR[in.A.Reg] & m.GPR[in.B.Reg])
	case isa.TESTI:
		m.setTest(m.GPR[in.A.Reg] & uint64(in.B.Imm))

	case isa.JMP, isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JAE, isa.JA, isa.JBE:
		if m.branchTaken(in.Op) {
			idx, err := m.staticTarget(in)
			if err != nil {
				return err
			}
			next = idx
		}

	case isa.CALL:
		ret := m.retAddr(next, in)
		if err := m.push64(in, ret); err != nil {
			return err
		}
		idx, err := m.staticTarget(in)
		if err != nil {
			return err
		}
		next = idx
	case isa.RET:
		ret, err := m.pop64(in)
		if err != nil {
			return err
		}
		idx, err := m.target(in, int64(ret))
		if err != nil {
			return err
		}
		next = idx

	case isa.PUSH:
		if err := m.push64(in, m.GPR[in.A.Reg]); err != nil {
			return err
		}
	case isa.POP:
		v, err := m.pop64(in)
		if err != nil {
			return err
		}
		m.GPR[in.A.Reg] = v
	case isa.PUSHX:
		m.GPR[isa.RSP] -= 16
		if err := m.store(in, spMem(m), m.XMM[in.A.Reg][0], 8); err != nil {
			return err
		}
		if err := m.store(in, spMemOff(m, 8), m.XMM[in.A.Reg][1], 8); err != nil {
			return err
		}
	case isa.POPX:
		lo, err := m.load(in, spMem(m), 8)
		if err != nil {
			return err
		}
		hi, err := m.load(in, spMemOff(m, 8), 8)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0], m.XMM[in.A.Reg][1] = lo, hi
		m.GPR[isa.RSP] += 16

	default:
		if err := m.stepFP(in); err != nil {
			return err
		}
	}

	if !m.halted {
		m.pcIdx = next
		if int(m.pcIdx) >= len(m.instrs) {
			return &Fault{Kind: FaultBadPC, PC: in.Addr, Op: in.Op, Detail: "fell off code segment"}
		}
	}
	return nil
}

// staticTarget resolves the branch/call target of the current instruction,
// using the program's pre-resolved index table when linked.
func (m *Machine) staticTarget(in *isa.Instr) (int32, error) {
	if m.targets != nil {
		if t := m.targets[m.pcIdx]; t >= 0 {
			return t, nil
		}
	}
	return m.target(in, in.A.Imm)
}

// target resolves a branch target address to an instruction index.
func (m *Machine) target(in *isa.Instr, addr int64) (int32, error) {
	if m.addrIdx != nil {
		idx, ok := m.addrIdx[uint64(addr)]
		if !ok {
			return 0, m.fault(FaultBadPC, in, fmt.Sprintf("target %#x", uint64(addr)))
		}
		return idx, nil
	}
	idx, ok := m.lp.idxOf(uint64(addr))
	if !ok {
		return 0, m.fault(FaultBadPC, in, fmt.Sprintf("target %#x", uint64(addr)))
	}
	return idx, nil
}

// branchTaken evaluates the branch condition for op against current flags.
func (m *Machine) branchTaken(op isa.Op) bool {
	switch op {
	case isa.JMP:
		return true
	case isa.JE:
		return m.eq
	case isa.JNE:
		return !m.eq
	case isa.JL:
		return m.ltS
	case isa.JLE:
		return m.ltS || m.eq
	case isa.JG:
		return !m.ltS && !m.eq
	case isa.JGE:
		return !m.ltS
	case isa.JB:
		return m.ltU
	case isa.JAE:
		return !m.ltU
	case isa.JA:
		return !m.ltU && !m.eq
	case isa.JBE:
		return m.ltU || m.eq
	default:
		return false
	}
}

// retAddr computes the return address for a CALL (the address after it).
func (m *Machine) retAddr(next int32, in *isa.Instr) uint64 {
	if int(next) < len(m.instrs) {
		return m.instrs[next].Addr
	}
	return in.Addr + uint64(isa.EncodedSize(*in))
}

func (m *Machine) setCmp(a, b uint64) {
	m.eq = a == b
	m.ltS = int64(a) < int64(b)
	m.ltU = a < b
}

func (m *Machine) setTest(v uint64) {
	m.eq = v == 0
	m.ltS = int64(v) < 0
	m.ltU = false
}

// setUcomi sets flags the way UCOMISD/UCOMISS do: unordered comparisons set
// both ZF and CF (so JE and JB are taken), as on x86.
func (m *Machine) setUcomi(a, b float64) {
	if math.IsNaN(a) || math.IsNaN(b) {
		m.eq, m.ltU, m.ltS = true, true, true
		return
	}
	m.eq = a == b
	m.ltU = a < b
	m.ltS = a < b
}

// ea computes the effective address of a memory operand.
func (m *Machine) ea(ref isa.MemRef) uint64 {
	addr := m.GPR[ref.Base] + uint64(int64(ref.Disp))
	if ref.HasIndex {
		addr += m.GPR[ref.Index] * uint64(ref.Scale)
	}
	return addr
}

func (m *Machine) load(in *isa.Instr, ref isa.MemRef, width int) (uint64, error) {
	addr := m.ea(ref)
	if addr+uint64(width) > uint64(len(m.Mem)) || addr+uint64(width) < addr {
		return 0, m.fault(FaultMemOOB, in, fmt.Sprintf("load %d bytes at %#x", width, addr))
	}
	switch width {
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.Mem[addr:])), nil
	default:
		return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
	}
}

func (m *Machine) store(in *isa.Instr, ref isa.MemRef, v uint64, width int) error {
	addr := m.ea(ref)
	if addr+uint64(width) > uint64(len(m.Mem)) || addr+uint64(width) < addr {
		return m.fault(FaultMemOOB, in, fmt.Sprintf("store %d bytes at %#x", width, addr))
	}
	switch width {
	case 4:
		binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	}
	if m.track != nil {
		m.track.markRange(addr, uint64(width))
	}
	return nil
}

func spMem(m *Machine) isa.MemRef { return isa.MemRef{Base: isa.RSP, Scale: 1} }

func spMemOff(m *Machine, off int32) isa.MemRef {
	return isa.MemRef{Base: isa.RSP, Disp: off, Scale: 1}
}

func (m *Machine) push64(in *isa.Instr, v uint64) error {
	m.GPR[isa.RSP] -= 8
	return m.store(in, spMem(m), v, 8)
}

func (m *Machine) pop64(in *isa.Instr) (uint64, error) {
	v, err := m.load(in, spMem(m), 8)
	if err != nil {
		return 0, err
	}
	m.GPR[isa.RSP] += 8
	return v, nil
}

func (m *Machine) syscall(in *isa.Instr) error {
	switch num := in.A.Imm; num {
	case isa.SysOutF64:
		m.Out = append(m.Out, OutVal{Kind: OutF64, Bits: m.XMM[0][0]})
	case isa.SysOutF32:
		m.Out = append(m.Out, OutVal{Kind: OutF32, Bits: m.XMM[0][0] & 0xFFFFFFFF})
	case isa.SysOutI64:
		m.Out = append(m.Out, OutVal{Kind: OutI64, Bits: m.GPR[isa.RAX]})
	default:
		if m.Host == nil {
			return m.fault(FaultBadSyscall, in, fmt.Sprintf("syscall %d with no host", num))
		}
		if err := m.Host.Syscall(m, num); err != nil {
			return m.fault(FaultHost, in, err.Error())
		}
		if m.track != nil {
			// The host may have written anywhere (MPI receives).
			m.track.markAll()
		}
	}
	return nil
}
