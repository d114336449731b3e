package arch

import (
	"errors"
	"fmt"
)

// Encoding converts between Instr values and machine bytes for one
// architecture. Implementations are stateless and safe for concurrent use.
type Encoding interface {
	// Arch identifies the architecture this encoding serves.
	Arch() Arch
	// Append appends the machine bytes of the instruction to dst and
	// returns the extended slice; it allocates only when dst lacks the
	// capacity. It fails, returning dst unchanged, if the instruction
	// kind does not exist on the architecture, if an immediate or
	// displacement does not fit its field, or if a PC-relative offset
	// is out of branch range.
	Append(dst []byte, i Instr) ([]byte, error)
	// Decode decodes the instruction at the start of b, which is located
	// at address addr. Undecodable bytes yield an Illegal instruction of
	// minimal length rather than an error; an error is returned only when
	// b is too short to contain any instruction.
	Decode(b []byte, addr uint64) (Instr, error)
	// MaxLen bounds encoded instruction lengths.
	MaxLen() int
}

// ErrShortBuffer is returned by Decode when no instruction fits in the
// remaining bytes.
var ErrShortBuffer = errors.New("arch: buffer too short to decode an instruction")

// rangeError describes an out-of-range immediate or displacement.
func rangeError(i Instr, what string, v int64) error {
	return fmt.Errorf("arch: %s out of range in %q: %d", what, i.String(), v)
}

// ForArch returns the Encoding for architecture a.
func ForArch(a Arch) Encoding {
	switch a {
	case X64:
		return x64Encoding{}
	case PPC:
		return fixedEncoding{arch: PPC}
	case A64:
		return fixedEncoding{arch: A64}
	default:
		panic(fmt.Sprintf("arch: unknown architecture %d", a))
	}
}

// DirectBranchRange returns the maximum forward displacement, in bytes,
// of the architecture's longest-reaching single direct branch instruction
// (the Table 2 "Range" column, one-sided): ±2GB on X64 (5-byte branch),
// ±32MB on PPC, ±128MB on A64.
func DirectBranchRange(a Arch) int64 {
	switch a {
	case X64:
		return 1<<31 - 1
	case PPC:
		return (1<<23 - 1) * 4
	case A64:
		return (1<<25 - 1) * 4
	default:
		return 0
	}
}

// ShortBranchRange returns the maximum forward displacement of the
// architecture's shortest direct branch form: the 2-byte ±128B branch on
// X64; on the fixed-width ISAs the single branch instruction is already
// the shortest form, so this equals DirectBranchRange.
func ShortBranchRange(a Arch) int64 {
	if a == X64 {
		return 127
	}
	return DirectBranchRange(a)
}

// CondBranchRange returns the maximum forward displacement of a
// conditional branch: ±2GB on X64, ±32KB on PPC (the bc form), ±512KB on
// A64. Conditional ranges being narrower than unconditional ones is what
// forces the code relocator to materialise branch islands.
func CondBranchRange(a Arch) int64 {
	switch a {
	case X64:
		return 1<<31 - 1
	case PPC:
		return (1<<13 - 1) * 4
	case A64:
		return (1<<17 - 1) * 4
	default:
		return 0
	}
}

// CallRange returns the maximum forward displacement of a direct call,
// which matches the unconditional branch on every architecture.
func CallRange(a Arch) int64 { return DirectBranchRange(a) }

// LeaRange returns the maximum displacement of the plain PC-relative
// address formation instruction (lea/adr).
func LeaRange(a Arch) int64 {
	if a == X64 {
		return 1<<31 - 1
	}
	return 1<<20 - 1 // adr-style, ±1MB
}

// fitsSigned reports whether v fits in a signed field of the given width.
func fitsSigned(v int64, bits uint) bool {
	lim := int64(1) << (bits - 1)
	return v >= -lim && v < lim
}

// Walk linearly decodes the byte slice b, assumed to start at address
// addr, handing each instruction to visit by value until the bytes are
// exhausted or visit returns false. Undecodable bytes appear as Illegal
// instructions. It is the streaming form of DecodeAll: nothing is
// materialised, so a sweep over a whole text section allocates nothing.
func Walk(a Arch, b []byte, addr uint64, visit func(Instr) bool) {
	enc := ForArch(a)
	for off := 0; off < len(b); {
		ins, err := enc.Decode(b[off:], addr+uint64(off))
		if err != nil || !visit(ins) {
			return
		}
		off += ins.EncLen
	}
}

// DecodeAll decodes the byte slice b, assumed to start at address addr,
// into consecutive instructions until the bytes are exhausted. Undecodable
// bytes appear as Illegal instructions. It is a convenience for tests, the
// objdump tool and the workload mutator; library sweeps stream through
// Walk, and the CFG builder performs control-flow traversal instead.
func DecodeAll(a Arch, b []byte, addr uint64) []Instr {
	enc := ForArch(a)
	var out []Instr
	off := 0
	for off < len(b) {
		ins, err := enc.Decode(b[off:], addr+uint64(off))
		if err != nil {
			break
		}
		out = append(out, ins)
		off += ins.EncLen
	}
	return out
}
