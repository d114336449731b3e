// Package bin defines the binary container used throughout the toolkit.
// It is modelled on ELF: a binary is a set of sections with load
// addresses, a symbol table, a dynamic symbol table with its string table,
// runtime relocations (.rela.dyn), optional link-time relocations (kept
// only when the program was linked with the equivalent of -Wl,-q), unwind
// tables carried as an encoded .eh_frame-like section, and a note section
// with language metadata. Binaries serialise to a deterministic byte
// format so they can be written to disk, inspected with cmd/icfg-objdump,
// and reloaded.
package bin

import (
	"fmt"
	"sort"
	"sync/atomic"

	"icfgpatch/internal/arch"
)

// Well-known section names. The rewriter consumes the originals and emits
// the .instr/.ra_map/.tramp_map/.rodata.icfg additions shown in Figure 1
// of the paper.
const (
	SecText     = ".text"
	SecRodata   = ".rodata"
	SecData     = ".data"
	SecBSS      = ".bss"
	SecDynSym   = ".dynsym"
	SecDynStr   = ".dynstr"
	SecRelaDyn  = ".rela.dyn"
	SecEhFrame  = ".eh_frame"
	SecGoPCLN   = ".gopclntab"
	SecNote     = ".note.lang"
	SecInterp   = ".interp"
	SecInstr    = ".instr"       // relocated code + instrumentation
	SecRAMap    = ".ra_map"      // relocated→original return address map
	SecTrampMap = ".tramp_map"   // trap address → relocated target map
	SecJTClone  = ".rodata.icfg" // cloned jump tables
	// OldPrefix renames consumed dynamic-linking sections so the loader
	// does not confuse them with their relocated replacements; their
	// storage becomes trampoline scratch space (Section 3 of the paper).
	OldPrefix = ".old"
)

// SectionFlags describe how a section is mapped.
type SectionFlags uint8

// Section flags.
const (
	// FlagAlloc marks sections loaded into memory at runtime; only these
	// count toward the size(1)-style size measurements.
	FlagAlloc SectionFlags = 1 << iota
	// FlagExec marks executable sections.
	FlagExec
	// FlagWrite marks writable sections.
	FlagWrite
	// FlagNoBits marks sections that occupy memory but no file bytes
	// (.bss); Data holds only the length.
	FlagNoBits
)

// Section is a named, contiguous address range with contents.
type Section struct {
	Name  string
	Addr  uint64
	Data  []byte
	Flags SectionFlags
	Align uint64

	// shared (accessed atomically; non-zero = true) marks Data as
	// aliased with another binary's section (see CloneShared): the
	// bytes are read-only until own() detaches a private copy. WriteAt
	// honours the flag; code that writes Data directly must go through
	// MutableData first. Atomic because concurrent rewrites of one
	// read-only binary all mark its sections shared — racing stores of
	// the same value, but stores nonetheless.
	shared uint32
}

// own detaches a private copy of a shared section's contents; a no-op
// for sections that already own their bytes.
func (s *Section) own() {
	if atomic.LoadUint32(&s.shared) != 0 {
		s.Data = append([]byte(nil), s.Data...)
		atomic.StoreUint32(&s.shared, 0)
	}
}

// MutableData returns the section's contents, detaching them from any
// sharing binary first — the required accessor for in-place writes that
// bypass Binary.WriteAt.
func (s *Section) MutableData() []byte {
	s.own()
	return s.Data
}

// Size returns the section's size in bytes.
func (s *Section) Size() uint64 { return uint64(len(s.Data)) }

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + s.Size() }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool { return addr >= s.Addr && addr < s.End() }

// Loaded reports whether the section is mapped at runtime.
func (s *Section) Loaded() bool { return s.Flags&FlagAlloc != 0 }

// NewSharedSection returns a new section at addr aliasing src's current
// contents copy-on-write: both sections are marked shared, so whichever
// is written first (through WriteAt or MutableData) detaches its own
// copy and the other keeps the bytes as of this call. The rewriter uses
// this for zero-copy section moves.
func NewSharedSection(name string, addr uint64, src *Section) *Section {
	atomic.StoreUint32(&src.shared, 1)
	return &Section{Name: name, Addr: addr, Data: src.Data, Flags: src.Flags, Align: src.Align, shared: 1}
}

// SymKind distinguishes symbol types.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymObject
)

// Symbol is one symbol table entry.
type Symbol struct {
	Name   string
	Addr   uint64
	Size   uint64
	Kind   SymKind
	Global bool
}

// RelocKind distinguishes relocation semantics.
type RelocKind uint8

// Relocation kinds.
const (
	// RelocRelative is the R_*_RELATIVE runtime relocation: at load time
	// the loader stores loadBase+Addend into the 8-byte slot at Off.
	// PIEs carry one for every absolute pointer in data, including
	// function pointers — the property Egalito and RetroWrite depend on.
	RelocRelative RelocKind = iota
	// RelocAbs64 is a link-time relocation recording that the 8-byte slot
	// at Off holds Sym+Addend. Linkers discard these unless asked to keep
	// them (-Wl,-q); BOLT requires them for function reordering.
	RelocAbs64
)

// Reloc is one relocation entry. Off is the absolute address of the slot
// being relocated.
type Reloc struct {
	Kind   RelocKind
	Off    uint64
	Addend int64
	Sym    string // symbol name for link-time relocations; empty otherwise
}

// Binary is a complete executable or shared library.
type Binary struct {
	Arch arch.Arch
	// PIE marks position independent binaries: all code is PC-relative
	// (or TOC-relative on PPC) and absolute data pointers carry
	// RelocRelative entries applied at load time.
	PIE bool
	// SharedLib marks shared objects (no entry point requirement).
	SharedLib bool
	Entry     uint64
	Sections  []*Section
	Symbols   []Symbol
	// DynSymbols are the dynamic symbols whose table lives in .dynsym.
	DynSymbols []Symbol
	// Relocs are runtime relocations (.rela.dyn contents).
	Relocs []Reloc
	// LinkRelocs are link-time relocations, present only when the
	// binary was linked with the -Wl,-q equivalent.
	LinkRelocs []Reloc
	// Meta carries .note.lang key/value metadata: "lang" (c, c++, go,
	// fortran, rust, mixed), "exceptions" ("1" when the language runtime
	// unwinds the stack), "go-runtime" ("1" for Go-like binaries whose
	// runtime walks stacks for GC and stack growth).
	Meta map[string]string
	// TOCValue is the runtime value of the TOC register r2 on PPC
	// (position independent code derives it from its own address; we
	// record the link-time value and the loader rebases it).
	TOCValue uint64
}

// New returns an empty binary for the architecture.
func New(a arch.Arch) *Binary {
	return &Binary{Arch: a, Meta: map[string]string{}}
}

// Section returns the section with the given name, or nil.
func (b *Binary) Section(name string) *Section {
	for _, s := range b.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Text returns the .text section, or nil.
func (b *Binary) Text() *Section { return b.Section(SecText) }

// SectionAt returns the loaded section containing addr, or nil.
func (b *Binary) SectionAt(addr uint64) *Section {
	for _, s := range b.Sections {
		if s.Loaded() && s.Contains(addr) {
			return s
		}
	}
	return nil
}

// AddSection appends a section and returns it. It fails if the name is
// already present or the address range overlaps an existing loaded
// section.
func (b *Binary) AddSection(s *Section) (*Section, error) {
	if b.Section(s.Name) != nil {
		return nil, fmt.Errorf("bin: duplicate section %s", s.Name)
	}
	if s.Loaded() {
		for _, o := range b.Sections {
			if o.Loaded() && s.Addr < o.End() && o.Addr < s.Addr+s.Size() {
				return nil, fmt.Errorf("bin: section %s [%#x,%#x) overlaps %s [%#x,%#x)",
					s.Name, s.Addr, s.Addr+s.Size(), o.Name, o.Addr, o.End())
			}
		}
	}
	b.Sections = append(b.Sections, s)
	return s, nil
}

// RemoveSection deletes the named section if present.
func (b *Binary) RemoveSection(name string) {
	for k, s := range b.Sections {
		if s.Name == name {
			b.Sections = append(b.Sections[:k], b.Sections[k+1:]...)
			return
		}
	}
}

// ReadAt copies length bytes starting at addr from whichever loaded
// section holds them. It fails when the range is unmapped or crosses a
// section boundary.
func (b *Binary) ReadAt(addr, length uint64) ([]byte, error) {
	s := b.SectionAt(addr)
	if s == nil {
		return nil, fmt.Errorf("bin: address %#x is not mapped", addr)
	}
	if addr+length > s.End() {
		return nil, fmt.Errorf("bin: read [%#x,%#x) crosses the end of %s", addr, addr+length, s.Name)
	}
	return s.Data[addr-s.Addr : addr-s.Addr+length], nil
}

// WriteAt overwrites bytes at addr inside a loaded section.
func (b *Binary) WriteAt(addr uint64, data []byte) error {
	s := b.SectionAt(addr)
	if s == nil {
		return fmt.Errorf("bin: address %#x is not mapped", addr)
	}
	if addr+uint64(len(data)) > s.End() {
		return fmt.Errorf("bin: write [%#x,%#x) crosses the end of %s", addr, addr+uint64(len(data)), s.Name)
	}
	s.own() // copy-on-write for sections shared via CloneShared
	copy(s.Data[addr-s.Addr:], data)
	return nil
}

// FuncSymbols returns the function symbols sorted by address.
func (b *Binary) FuncSymbols() []Symbol {
	n := 0
	for _, s := range b.Symbols {
		if s.Kind == SymFunc {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Symbol, 0, n)
	for _, s := range b.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// SymbolByName returns the first symbol with the given name.
func (b *Binary) SymbolByName(name string) (Symbol, bool) {
	for _, s := range b.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// FuncAt returns the function symbol covering addr.
func (b *Binary) FuncAt(addr uint64) (Symbol, bool) {
	for _, s := range b.Symbols {
		if s.Kind == SymFunc && addr >= s.Addr && addr < s.Addr+s.Size {
			return s, true
		}
	}
	return Symbol{}, false
}

// LoadedSize sums the sizes of all loaded sections: the size(1) model
// used for the paper's "size increase" columns (debug and note sections
// do not count).
func (b *Binary) LoadedSize() uint64 {
	var n uint64
	for _, s := range b.Sections {
		if s.Loaded() {
			n += s.Size()
		}
	}
	return n
}

// MaxLoadedAddr returns the highest end address of any loaded section,
// used when placing new sections.
func (b *Binary) MaxLoadedAddr() uint64 {
	var hi uint64
	for _, s := range b.Sections {
		if s.Loaded() && s.End() > hi {
			hi = s.End()
		}
	}
	return hi
}

// Lang returns the source language recorded in the note metadata.
func (b *Binary) Lang() string { return b.Meta["lang"] }

// UsesExceptions reports whether the binary's language runtime performs
// exception-driven stack unwinding (C++ exceptions).
func (b *Binary) UsesExceptions() bool { return b.Meta["exceptions"] == "1" }

// GoRuntime reports whether the binary carries a Go-style runtime that
// natively unwinds the stack (garbage collection, stack growth).
func (b *Binary) GoRuntime() bool { return b.Meta["go-runtime"] == "1" }

// CFI reports whether the binary claims to have been built with
// hardware-CFI landing pads (arch.Mark at every indirect-transfer
// target). The claim is advisory: the evidence layer verifies it
// against the actual marker sites before trusting it.
func (b *Binary) CFI() bool { return b.Meta["cfi"] == "1" }

// Clone returns a deep copy of the binary; the rewriter mutates the clone
// so callers keep the original for differential testing.
func (b *Binary) Clone() *Binary {
	nb := &Binary{
		Arch:      b.Arch,
		PIE:       b.PIE,
		SharedLib: b.SharedLib,
		Entry:     b.Entry,
		TOCValue:  b.TOCValue,
		Meta:      map[string]string{},
	}
	for k, v := range b.Meta {
		nb.Meta[k] = v
	}
	for _, s := range b.Sections {
		d := make([]byte, len(s.Data))
		copy(d, s.Data)
		nb.Sections = append(nb.Sections, &Section{Name: s.Name, Addr: s.Addr, Data: d, Flags: s.Flags, Align: s.Align})
	}
	nb.Symbols = append([]Symbol(nil), b.Symbols...)
	nb.DynSymbols = append([]Symbol(nil), b.DynSymbols...)
	nb.Relocs = append([]Reloc(nil), b.Relocs...)
	nb.LinkRelocs = append([]Reloc(nil), b.LinkRelocs...)
	return nb
}

// CloneShared returns a copy of the binary whose sections share the
// original's contents copy-on-write: metadata (headers, symbols,
// relocations) is copied eagerly, but each section's Data is aliased
// read-only and detached only when first written through WriteAt or
// MutableData. The rewriter's zero-copy section assembly rests on this:
// a multi-megabyte input whose rewrite touches only .text and a few
// data slots clones only those sections' bytes. Callers that mutate
// Data directly (not via WriteAt/MutableData) must use Clone instead.
func (b *Binary) CloneShared() *Binary {
	nb := &Binary{
		Arch:      b.Arch,
		PIE:       b.PIE,
		SharedLib: b.SharedLib,
		Entry:     b.Entry,
		TOCValue:  b.TOCValue,
		Meta:      make(map[string]string, len(b.Meta)),
	}
	for k, v := range b.Meta {
		nb.Meta[k] = v
	}
	nb.Sections = make([]*Section, 0, len(b.Sections))
	for _, s := range b.Sections {
		// Both sides are marked shared: whichever binary writes first —
		// through WriteAt or MutableData — detaches its own copy, so the
		// other keeps the bytes it saw at clone time.
		atomic.StoreUint32(&s.shared, 1)
		nb.Sections = append(nb.Sections, &Section{
			Name: s.Name, Addr: s.Addr, Data: s.Data, Flags: s.Flags, Align: s.Align,
			shared: 1,
		})
	}
	nb.Symbols = append([]Symbol(nil), b.Symbols...)
	nb.DynSymbols = append([]Symbol(nil), b.DynSymbols...)
	nb.Relocs = append([]Reloc(nil), b.Relocs...)
	nb.LinkRelocs = append([]Reloc(nil), b.LinkRelocs...)
	return nb
}

// Validate performs structural checks: a text section exists, loaded
// sections do not overlap, symbols point into sections, and relocation
// slots are mapped. The rewriter validates its output before returning it.
func (b *Binary) Validate() error {
	if !b.Arch.Valid() {
		return fmt.Errorf("bin: invalid architecture %d", b.Arch)
	}
	if b.Text() == nil {
		return fmt.Errorf("bin: no %s section", SecText)
	}
	sorted := append([]*Section(nil), b.Sections...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	var prev *Section
	for _, s := range sorted {
		if !s.Loaded() || s.Size() == 0 {
			continue
		}
		if prev != nil && s.Addr < prev.End() {
			return fmt.Errorf("bin: sections %s and %s overlap", prev.Name, s.Name)
		}
		prev = s
	}
	for _, sym := range b.Symbols {
		if sym.Kind == SymFunc && sym.Size > 0 && b.SectionAt(sym.Addr) == nil {
			return fmt.Errorf("bin: function symbol %s at unmapped address %#x", sym.Name, sym.Addr)
		}
	}
	for _, r := range b.Relocs {
		if b.SectionAt(r.Off) == nil {
			return fmt.Errorf("bin: relocation slot at unmapped address %#x", r.Off)
		}
	}
	if !b.SharedLib && b.SectionAt(b.Entry) == nil {
		return fmt.Errorf("bin: entry point %#x is not mapped", b.Entry)
	}
	return nil
}
