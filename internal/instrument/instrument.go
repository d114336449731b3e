// Package instrument defines the Dyninst-like instrumentation interface:
// where to instrument (instrumentation points), what to insert
// (payloads), and which functions to touch (partial instrumentation —
// the capability Section 9's Diogenes case study depends on). The
// rewriter (package core) consumes a Request and emits payload snippets
// into the relocated code.
package instrument

import (
	"icfgpatch/internal/arch"
)

// Point selects where payloads are inserted.
type Point uint8

// Instrumentation points.
const (
	// BlockEntry instruments the entry of every basic block — the
	// paper's strong verification workload ("instruments every basic
	// block with empty instrumentation, which will trigger relocating
	// all functions").
	BlockEntry Point = iota
	// FuncEntry instruments function entries only, with the once-per-
	// call semantics that plain instruction patching cannot provide.
	FuncEntry
	// AtAddrs instruments the specific instruction addresses listed in
	// Request.Addrs — the Dyninst API model where users choose arbitrary
	// instrumentation points. Instrumentation integrity still holds:
	// trampolines at CFL blocks guarantee the containing block is
	// entered through relocated code.
	AtAddrs
)

// Payload selects what is inserted at each point.
type Payload uint8

// Payloads.
const (
	// PayloadEmpty inserts nothing but still forces relocation — the
	// paper's overhead measurement payload.
	PayloadEmpty Payload = iota
	// PayloadCounter increments a per-point 8-byte counter cell,
	// preserving all registers (the execution-count tool).
	PayloadCounter
)

// Request describes one instrumentation run.
type Request struct {
	Where   Point
	Payload Payload
	// Funcs restricts instrumentation to the named functions; nil means
	// every instrumentable function (partial instrumentation leaves the
	// rest of the binary untouched).
	Funcs []string
	// Addrs lists the instruction addresses to instrument when Where is
	// AtAddrs.
	Addrs []uint64
}

// WantsAddr reports whether the request instruments the instruction at
// addr (AtAddrs only).
func (r Request) WantsAddr(addr uint64) bool {
	if r.Where != AtAddrs {
		return false
	}
	for _, a := range r.Addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// Wants reports whether the request covers the named function.
func (r Request) Wants(name string) bool {
	if r.Funcs == nil {
		return true
	}
	for _, f := range r.Funcs {
		if f == name {
			return true
		}
	}
	return false
}

// Snippet registers clobbered and preserved by payload code.
const (
	snipA = arch.R8
	snipB = arch.R9
)

// CounterSnippet returns the instruction sequence incrementing the
// 8-byte cell at cellAddr, transparent to the interrupted register
// state: the two scratch registers are spilled below the stack pointer
// and restored. The address is materialised PC-relatively in position
// independent code and absolutely otherwise.
func CounterSnippet(a arch.Arch, pie bool, cellAddr uint64) []arch.Instr {
	seq := []arch.Instr{
		{Kind: arch.Store, Rs2: snipA, Rs1: arch.SP, Size: 8, Imm: -16},
		{Kind: arch.Store, Rs2: snipB, Rs1: arch.SP, Size: 8, Imm: -24},
	}
	if pie {
		if a == arch.X64 {
			// Lea's displacement is resolved by the relocator once the
			// snippet's address is known; mark the target via Imm hack:
			// the relocator rewrites PC-relative operands by absolute
			// target, so emit with a placeholder and let it SetTarget.
			seq = append(seq, arch.Instr{Kind: arch.Lea, Rd: snipA, Imm: int64(cellAddr)})
		} else {
			seq = append(seq,
				arch.Instr{Kind: arch.LeaHi, Rd: snipA, Imm: int64(cellAddr)},
				arch.Instr{Kind: arch.AddImm16, Rd: snipA, Rs1: snipA, Imm: int64(cellAddr & 0xFFF)},
			)
		}
	} else {
		if a == arch.X64 {
			seq = append(seq, arch.Instr{Kind: arch.MovImm, Rd: snipA, Imm: int64(cellAddr)})
		} else {
			seq = append(seq,
				arch.Instr{Kind: arch.MovImm16, Rd: snipA, Imm: int64(cellAddr & 0xFFFF)},
				arch.Instr{Kind: arch.MovK16, Rd: snipA, Imm: int64((cellAddr >> 16) & 0xFFFF), Shift: 1},
			)
		}
	}
	seq = append(seq,
		arch.Instr{Kind: arch.Load, Rd: snipB, Rs1: snipA, Size: 8},
		arch.Instr{Kind: arch.ALUImm, Op: arch.Add, Rd: snipB, Rs1: snipB, Imm: 1},
		arch.Instr{Kind: arch.Store, Rs2: snipB, Rs1: snipA, Size: 8},
		arch.Instr{Kind: arch.Load, Rd: snipB, Rs1: arch.SP, Size: 8, Imm: -24},
		arch.Instr{Kind: arch.Load, Rd: snipA, Rs1: arch.SP, Size: 8, Imm: -16},
	)
	return seq
}
