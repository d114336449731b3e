package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"icfgpatch/internal/arch"
)

// The serialised format is deterministic: an 8-byte magic, a version, the
// header fields, then length-prefixed tables. Sections are written in
// address order so that byte-identical binaries compare equal.

var magic = [8]byte{'I', 'C', 'F', 'G', 'B', 'I', 'N', '1'}

// ErrBadMagic is returned when loading a file that is not a serialised
// binary.
var ErrBadMagic = errors.New("bin: bad magic (not an ICFGBIN1 file)")

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)    { w.u64(uint64(v)) }
func (w *writer) str(s string)   { w.u64(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) bytes(b []byte) { w.u64(uint64(len(b))); w.buf = append(w.buf, b...) }

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("bin: truncated input reading %s at offset %d", what, r.off)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads a table length and rejects any count that could not fit
// in the remaining input given a minimum entry size. This bounds both
// allocation and loop work by the input length, so a hostile 2^60-entry
// header fails cleanly instead of panicking on a negative make cap or
// grinding through the loop.
func (r *reader) count(what string, minEntrySize int) uint64 {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if rem := len(r.b) - r.off; n > uint64(rem)/uint64(minEntrySize) {
		if r.err == nil {
			r.err = fmt.Errorf("bin: %s table declares %d entries but only %d bytes remain at offset %d", what, n, rem, r.off)
		}
		return 0
	}
	return n
}

func (r *reader) str() string {
	n := r.u64()
	if r.err != nil || r.off+int(n) > len(r.b) || n > uint64(len(r.b)) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) bytesField() []byte {
	n := r.u64()
	if r.err != nil || r.off+int(n) > len(r.b) || n > uint64(len(r.b)) {
		r.fail("bytes")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += int(n)
	return out
}

func writeSymbols(w *writer, syms []Symbol) {
	w.u64(uint64(len(syms)))
	for _, s := range syms {
		w.str(s.Name)
		w.u64(s.Addr)
		w.u64(s.Size)
		w.u8(uint8(s.Kind))
		if s.Global {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
}

// symbolWireSize is the minimum serialised Symbol: name length prefix,
// addr, size, kind, global flag.
const symbolWireSize = 8 + 8 + 8 + 1 + 1

func readSymbols(r *reader) []Symbol {
	n := r.count("symbol", symbolWireSize)
	if r.err != nil {
		return nil
	}
	syms := make([]Symbol, 0, n)
	for k := uint64(0); k < n && r.err == nil; k++ {
		var s Symbol
		s.Name = r.str()
		s.Addr = r.u64()
		s.Size = r.u64()
		s.Kind = SymKind(r.u8())
		s.Global = r.u8() != 0
		syms = append(syms, s)
	}
	return syms
}

func writeRelocs(w *writer, rels []Reloc) {
	w.u64(uint64(len(rels)))
	for _, rl := range rels {
		w.u8(uint8(rl.Kind))
		w.u64(rl.Off)
		w.i64(rl.Addend)
		w.str(rl.Sym)
	}
}

// relocWireSize is the minimum serialised Reloc: kind, offset, addend,
// symbol length prefix.
const relocWireSize = 1 + 8 + 8 + 8

func readRelocs(r *reader) []Reloc {
	n := r.count("reloc", relocWireSize)
	if r.err != nil {
		return nil
	}
	rels := make([]Reloc, 0, n)
	for k := uint64(0); k < n && r.err == nil; k++ {
		var rl Reloc
		rl.Kind = RelocKind(r.u8())
		rl.Off = r.u64()
		rl.Addend = r.i64()
		rl.Sym = r.str()
		rels = append(rels, rl)
	}
	return rels
}

// Marshal serialises the binary into one buffer of exactly its size.
func (b *Binary) Marshal() []byte {
	w := writer{buf: make([]byte, 0, b.marshalSize())}
	w.buf = append(w.buf, magic[:]...)
	w.u8(uint8(b.Arch))
	flags := uint8(0)
	if b.PIE {
		flags |= 1
	}
	if b.SharedLib {
		flags |= 2
	}
	w.u8(flags)
	w.u64(b.Entry)
	w.u64(b.TOCValue)

	secs := append([]*Section(nil), b.Sections...)
	sort.Slice(secs, func(i, j int) bool {
		if secs[i].Addr != secs[j].Addr {
			return secs[i].Addr < secs[j].Addr
		}
		return secs[i].Name < secs[j].Name
	})
	w.u64(uint64(len(secs)))
	for _, s := range secs {
		w.str(s.Name)
		w.u64(s.Addr)
		w.u8(uint8(s.Flags))
		w.u64(s.Align)
		w.bytes(s.Data)
	}

	writeSymbols(&w, b.Symbols)
	writeSymbols(&w, b.DynSymbols)
	writeRelocs(&w, b.Relocs)
	writeRelocs(&w, b.LinkRelocs)

	keys := make([]string, 0, len(b.Meta))
	for k := range b.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u64(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(b.Meta[k])
	}
	return w.buf
}

// marshalSize is the length of Marshal's output: the fixed header, then
// every table's count and entries as Marshal writes them.
func (b *Binary) marshalSize() int {
	n := len(magic) + 1 + 1 + 8 + 8 + 8 // arch, flags, entry, TOC, section count
	for _, s := range b.Sections {
		n += 8 + len(s.Name) + 8 + 1 + 8 + 8 + len(s.Data)
	}
	for _, syms := range [][]Symbol{b.Symbols, b.DynSymbols} {
		n += 8
		for _, s := range syms {
			n += symbolWireSize + len(s.Name)
		}
	}
	for _, rels := range [][]Reloc{b.Relocs, b.LinkRelocs} {
		n += 8
		for _, rl := range rels {
			n += relocWireSize + len(rl.Sym)
		}
	}
	n += 8 // meta count
	for k, v := range b.Meta {
		n += 8 + len(k) + 8 + len(v)
	}
	return n
}

// Unmarshal parses a serialised binary.
func Unmarshal(data []byte) (*Binary, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, ErrBadMagic
	}
	r := &reader{b: data, off: len(magic)}
	b := New(arch.Arch(r.u8()))
	flags := r.u8()
	b.PIE = flags&1 != 0
	b.SharedLib = flags&2 != 0
	b.Entry = r.u64()
	b.TOCValue = r.u64()

	// Minimum serialised section: name prefix, addr, flags, align, data
	// prefix.
	nsec := r.count("section", 8+8+1+8+8)
	for k := uint64(0); k < nsec && r.err == nil; k++ {
		s := &Section{}
		s.Name = r.str()
		s.Addr = r.u64()
		s.Flags = SectionFlags(r.u8())
		s.Align = r.u64()
		s.Data = r.bytesField()
		b.Sections = append(b.Sections, s)
	}

	b.Symbols = readSymbols(r)
	b.DynSymbols = readSymbols(r)
	b.Relocs = readRelocs(r)
	b.LinkRelocs = readRelocs(r)

	nmeta := r.count("meta", 8+8)
	for k := uint64(0); k < nmeta && r.err == nil; k++ {
		key := r.str()
		b.Meta[key] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("bin: %d trailing bytes after binary at offset %d", len(data)-r.off, r.off)
	}
	if !b.Arch.Valid() {
		return nil, fmt.Errorf("bin: unknown architecture %d", b.Arch)
	}
	return b, nil
}

// WriteFile serialises the binary to path.
func (b *Binary) WriteFile(path string) error {
	return os.WriteFile(path, b.Marshal(), 0o644)
}

// ReadFile loads a serialised binary from path.
func ReadFile(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
