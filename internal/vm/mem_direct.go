//go:build amd64 || arm64

package vm

import "unsafe"

// Direct guest-memory access for the compiled tier's fast paths on
// little-endian hosts that permit unaligned loads and stores. Callers
// have already checked that [addr, addr+width) lies inside mem (the one
// range-and-wrap check of loadU64 and its siblings), so these skip the
// slice bounds checks binary.LittleEndian would repeat. Every other
// architecture builds mem_portable.go instead.

func memU64(mem []byte, addr uint64) uint64 {
	return *(*uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(mem)), addr))
}

func memU32(mem []byte, addr uint64) uint32 {
	return *(*uint32)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(mem)), addr))
}

func putMemU64(mem []byte, addr, v uint64) {
	*(*uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(mem)), addr)) = v
}

func putMemU32(mem []byte, addr uint64, v uint32) {
	*(*uint32)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(mem)), addr)) = v
}
