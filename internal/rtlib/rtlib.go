// Package rtlib is the runtime library that the paper injects into
// rewritten binaries with LD_PRELOAD (Section 3): it contains the trap
// signal handler that transfers control for trap trampolines, and the
// return-address translation routine of Section 6, backed by the .ra_map
// section it extracts from the rewritten binary. It also records which
// unwinding hooks are active: the libunwind step-function wrap for C++
// exceptions (Section 6.1) and the runtime.findfunc/runtime.pcvalue
// input patch for Go binaries (Section 6.2).
//
// rtlib implements emu.Runtime; loading a rewritten binary without
// preloading the library reproduces the paper's failure modes (unhandled
// trap signals, unwinding through untranslated return addresses).
package rtlib

import (
	"fmt"

	"icfgpatch/internal/bin"
)

// Meta keys the rewriter sets in the output binary's note section to
// describe which runtime hooks the library must install.
const (
	// MetaWrapUnwind marks binaries whose exception unwinding requires
	// the step-function wrap.
	MetaWrapUnwind = "icfg-wrap-unwind"
	// MetaGoPatch marks binaries whose Go runtime traceback functions
	// are entry-instrumented for RA translation.
	MetaGoPatch = "icfg-go-patch"
)

// Library is the loaded runtime library state for one rewritten binary.
type Library struct {
	traps      *bin.AddrMap
	ramap      *bin.AddrMap
	wrapUnwind bool
	goPatch    bool
}

// Preload extracts the trampoline map and return-address map from the
// rewritten binary, the moral equivalent of the library's constructor
// running under LD_PRELOAD. Binaries with no .tramp_map/.ra_map sections
// yield empty maps (the library is harmless on unrewritten binaries).
func Preload(b *bin.Binary) (*Library, error) {
	lib := &Library{
		traps:      bin.NewAddrMap(nil),
		ramap:      bin.NewAddrMap(nil),
		wrapUnwind: b.Meta[MetaWrapUnwind] == "1",
		goPatch:    b.Meta[MetaGoPatch] == "1",
	}
	if s := b.Section(bin.SecTrampMap); s != nil {
		pairs, err := bin.DecodeAddrMap(s.Data)
		if err != nil {
			return nil, fmt.Errorf("rtlib: parsing %s: %w", bin.SecTrampMap, err)
		}
		lib.traps = bin.NewAddrMap(pairs)
	}
	if s := b.Section(bin.SecRAMap); s != nil {
		pairs, err := bin.DecodeAddrMap(s.Data)
		if err != nil {
			return nil, fmt.Errorf("rtlib: parsing %s: %w", bin.SecRAMap, err)
		}
		lib.ramap = bin.NewAddrMap(pairs)
	}
	return lib, nil
}

// TrapTarget implements emu.Runtime: the signal handler's lookup from
// trap trampoline address to relocated code target.
func (l *Library) TrapTarget(pc uint64) (uint64, bool) { return l.traps.Lookup(pc) }

// TranslateRA implements emu.Runtime: Section 6's RATranslation routine.
// Addresses absent from the map pass through unchanged — "this case
// happens naturally when we are unwinding through binaries that are not
// instrumented".
func (l *Library) TranslateRA(pc uint64) uint64 {
	if to, ok := l.ramap.Lookup(pc); ok {
		return to
	}
	return pc
}

// WrapsUnwind implements emu.Runtime.
func (l *Library) WrapsUnwind() bool { return l.wrapUnwind }

// PatchesGoRuntime implements emu.Runtime.
func (l *Library) PatchesGoRuntime() bool { return l.goPatch }

// TrapCount returns the number of trap trampolines registered.
func (l *Library) TrapCount() int { return l.traps.Len() }
