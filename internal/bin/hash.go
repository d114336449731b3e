package bin

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"icfgpatch/internal/arch"
)

// funcHashVersion tags the hash input layout; bump it whenever the
// fields below change so stale identities can never validate.
const funcHashVersion = "icfg-func-v1"

// FuncContentHashes returns the content address of each function: a
// sha256 over everything a per-function analysis may read from the
// function itself. Two binaries in which a function hashes equal are
// guaranteed to agree on the function's bytes, placement, and the
// relocations landing inside it — the identity the delta engine keys
// its function-granular analysis units by.
//
// The hashed byte range extends MaxLen-1 bytes past the symbol end
// (clamped to the section): the decoder's lookahead window for the last
// instruction may read past a truncated function, so those bytes are
// part of what analysis can observe.
//
// It sorts each relocation list by offset once for the batch: n
// functions over r relocations cost O((n + r) log r), not O(n·r).
func (b *Binary) FuncContentHashes(syms []Symbol) [][32]byte {
	h := sha256.New()
	var buf []byte // scratch for the digest input: io.WriteString would allocate per string
	put := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], v)
		h.Write(buf)
	}
	str := func(s string) {
		buf = append(append(buf[:0], s...), 0)
		h.Write(buf)
	}
	var flags uint64
	if b.PIE {
		flags |= 1
	}
	if b.SharedLib {
		flags |= 2
	}
	byOff := func(rs []Reloc) []int {
		order := make([]int, len(rs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return rs[order[x]].Off < rs[order[y]].Off })
		return order
	}
	relocOrder, linkOrder := byOff(b.Relocs), byOff(b.LinkRelocs)
	var in []int
	// hashRelocs hashes the relocations in [lo, hi) in slice order,
	// which the hash input keeps whether or not the slice is sorted.
	hashRelocs := func(tag string, rs []Reloc, order []int, lo, hi uint64) {
		str(tag)
		in = in[:0]
		for k := sort.Search(len(order), func(k int) bool { return rs[order[k]].Off >= lo }); k < len(order) && rs[order[k]].Off < hi; k++ {
			in = append(in, order[k])
		}
		sort.Ints(in)
		for _, i := range in {
			put(uint64(rs[i].Kind))
			put(rs[i].Off)
			put(uint64(rs[i].Addend))
			str(rs[i].Sym)
		}
	}
	out := make([][32]byte, len(syms))
	for k, sym := range syms {
		h.Reset()
		str(funcHashVersion)
		str(sym.Name)
		put(uint64(b.Arch)<<8 | flags)
		put(sym.Addr)
		put(sym.Size)
		if s := b.SectionAt(sym.Addr); s != nil {
			end := min(sym.Addr+sym.Size+uint64(arch.ForArch(b.Arch).MaxLen()-1), s.End())
			if sym.Addr < end {
				h.Write(s.Data[sym.Addr-s.Addr : end-s.Addr])
			}
		}
		hashRelocs("relocs", b.Relocs, relocOrder, sym.Addr, sym.Addr+sym.Size)
		hashRelocs("link", b.LinkRelocs, linkOrder, sym.Addr, sym.Addr+sym.Size)
		h.Sum(out[k][:0])
	}
	return out
}
