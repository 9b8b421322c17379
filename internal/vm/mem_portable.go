//go:build !amd64 && !arm64

package vm

import "encoding/binary"

// Portable guest-memory access for the compiled tier's fast paths: the
// byte-order-explicit form for big-endian hosts and hosts without
// unaligned access (see mem_direct.go for amd64 and arm64).

func memU64(mem []byte, addr uint64) uint64 { return binary.LittleEndian.Uint64(mem[addr:]) }

func memU32(mem []byte, addr uint64) uint32 { return binary.LittleEndian.Uint32(mem[addr:]) }

func putMemU64(mem []byte, addr, v uint64) { binary.LittleEndian.PutUint64(mem[addr:], v) }

func putMemU32(mem []byte, addr uint64, v uint32) { binary.LittleEndian.PutUint32(mem[addr:], v) }
