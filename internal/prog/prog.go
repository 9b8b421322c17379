// Package prog defines the program container and the serialized binary
// image format that the fpmix toolchain operates on.
//
// A Module is the in-memory view: a list of functions, each holding a flat
// instruction sequence with assigned addresses, plus a data segment and an
// entry point. The Image form is the on-disk/byte view; loading an image
// re-decodes the code bytes instruction by instruction, the same way the
// paper's framework re-parses real binaries with XED before analyzing or
// rewriting them.
package prog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fpmix/internal/isa"
)

// Standard memory layout for fpmix programs. Code lives at CodeBase and is
// fetched from the decoded image (it is not readable as data); the data
// segment starts at DataBase; the stack grows down from the top of memory.
const (
	CodeBase = uint64(0x1000)
	DataBase = uint64(0x10_0000)
)

// Func is a named contiguous code region.
type Func struct {
	Name   string
	Addr   uint64 // address of first instruction
	End    uint64 // address one past the last instruction
	Instrs []isa.Instr
}

// Module is a complete program.
//
// A module carries a memo of the static analyses computed over it (see
// Memo), so every search of one image shares one supergraph, one
// dataflow result, one flag analysis and one error-bound analysis. A
// module must therefore not be modified once it has been analyzed, and
// the analyses it hands out are read-only: code that needs an edited
// image edits a Clone, whose memo starts empty.
type Module struct {
	Name    string
	Funcs   []*Func // sorted by address
	Entry   uint64  // address of the first executed instruction
	Data    []byte  // initial contents of the data segment at DataBase
	MemSize uint64  // total memory size in bytes (data + heap + stack)

	// Debug optionally maps instruction addresses to source labels (the
	// analog of DWARF line info; the configuration GUI uses it to show
	// "the corresponding source code location for a particular
	// instruction", paper §2.1). May be nil.
	Debug map[uint64]string

	// Regions optionally records named data-segment allocations — the
	// analog of object symbols with sizes. Each entry is an array's byte
	// extent relative to the data-segment base register; the dataflow
	// analyses use disjoint extents to separate arrays that would
	// otherwise share one summary memory cell. May be nil (analyses then
	// fall back to the fully conservative memory model).
	Regions []Region

	memo memo // analyses of this image, one per key; see Memo
}

// memo holds a module's analyses. Each entry is computed once; ready is
// closed when its value is set.
type memo struct {
	mu      sync.Mutex
	entries map[any]*memoEntry // created on first use
}

type memoEntry struct {
	ready chan struct{}
	v     any
	err   error
}

// Memo returns the value of m's analysis memo under key, calling
// compute to make it on the key's first use; a failure is kept like a
// value. Concurrent first calls make one value: one caller computes it
// and the others wait for it. compute may itself call Memo with other
// keys, as long as no key's computation comes back to that key. Keys
// are comparable values of an analysis package's own unexported type,
// so packages cannot collide. The value is shared by every caller and
// must be treated as read-only.
func Memo[T any](m *Module, key any, compute func() (T, error)) (T, error) {
	m.memo.mu.Lock()
	e, ok := m.memo.entries[key]
	if !ok {
		if m.memo.entries == nil {
			m.memo.entries = make(map[any]*memoEntry)
		}
		e = &memoEntry{ready: make(chan struct{})}
		m.memo.entries[key] = e
	}
	m.memo.mu.Unlock()
	if ok {
		<-e.ready
	} else {
		defer close(e.ready)
		e.v, e.err = compute()
	}
	v, _ := e.v.(T)
	return v, e.err
}

// Memoized reports whether m's memo value under key is already
// computed, so that Memo would return it without computing or waiting.
func (m *Module) Memoized(key any) bool {
	m.memo.mu.Lock()
	e, ok := m.memo.entries[key]
	m.memo.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Region is a named allocation in the data segment: [Off, Off+Size)
// bytes relative to the data-segment base.
type Region struct {
	Name string
	Off  int32
	Size int32
}

// Validate checks structural invariants: functions sorted, non-overlapping,
// addresses consistent with instruction encodings, and the entry point
// landing on an instruction.
func (m *Module) Validate() error {
	if m.MemSize == 0 {
		return errors.New("prog: zero MemSize")
	}
	if DataBase+uint64(len(m.Data)) > m.MemSize {
		return fmt.Errorf("prog: data segment (%d bytes) exceeds MemSize %d", len(m.Data), m.MemSize)
	}
	prevEnd := CodeBase
	entryOK := false
	for i, f := range m.Funcs {
		if f.Addr < prevEnd {
			return fmt.Errorf("prog: function %s at %#x overlaps previous (end %#x)", f.Name, f.Addr, prevEnd)
		}
		addr := f.Addr
		for _, in := range f.Instrs {
			if in.Addr != addr {
				return fmt.Errorf("prog: %s: instruction at %#x recorded as %#x", f.Name, addr, in.Addr)
			}
			if in.Addr == m.Entry {
				entryOK = true
			}
			addr += uint64(isa.EncodedSize(in))
		}
		if f.End != addr {
			return fmt.Errorf("prog: %s: End=%#x, computed %#x", f.Name, f.End, addr)
		}
		prevEnd = f.End
		_ = i
	}
	if !entryOK {
		return fmt.Errorf("prog: entry %#x is not an instruction address", m.Entry)
	}
	return nil
}

// FuncAt returns the function containing addr, or nil.
func (m *Module) FuncAt(addr uint64) *Func {
	i := sort.Search(len(m.Funcs), func(i int) bool { return m.Funcs[i].End > addr })
	if i < len(m.Funcs) && m.Funcs[i].Addr <= addr {
		return m.Funcs[i]
	}
	return nil
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Instructions returns all instructions in address order.
func (m *Module) Instructions() []isa.Instr {
	var out []isa.Instr
	for _, f := range m.Funcs {
		out = append(out, f.Instrs...)
	}
	return out
}

// InstrAt returns the instruction at exactly addr.
func (m *Module) InstrAt(addr uint64) (isa.Instr, bool) {
	f := m.FuncAt(addr)
	if f == nil {
		return isa.Instr{}, false
	}
	i := sort.Search(len(f.Instrs), func(i int) bool { return f.Instrs[i].Addr >= addr })
	if i < len(f.Instrs) && f.Instrs[i].Addr == addr {
		return f.Instrs[i], true
	}
	return isa.Instr{}, false
}

// Candidates returns the addresses of all double-precision candidate
// instructions (the set Pd), in address order.
func (m *Module) Candidates() []uint64 {
	var out []uint64
	for _, f := range m.Funcs {
		for _, in := range f.Instrs {
			if isa.IsCandidate(in.Op) {
				out = append(out, in.Addr)
			}
		}
	}
	return out
}

// Clone returns a deep copy of the module, with an empty analysis memo.
func (m *Module) Clone() *Module {
	c := &Module{
		Name:    m.Name,
		Entry:   m.Entry,
		Data:    append([]byte(nil), m.Data...),
		MemSize: m.MemSize,
	}
	if m.Debug != nil {
		c.Debug = make(map[uint64]string, len(m.Debug))
		for a, s := range m.Debug {
			c.Debug[a] = s
		}
	}
	c.Regions = append([]Region(nil), m.Regions...)
	for _, f := range m.Funcs {
		c.Funcs = append(c.Funcs, &Func{
			Name:   f.Name,
			Addr:   f.Addr,
			End:    f.End,
			Instrs: append([]isa.Instr(nil), f.Instrs...),
		})
	}
	return c
}
