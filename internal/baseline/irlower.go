package baseline

import (
	"errors"
	"fmt"
	"strings"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
)

// Errors an IR-lowering rewriter reports when its assumptions fail; each
// corresponds to a failure the paper observed with Egalito.
var (
	// ErrNeedsPIE: IR lowering requires runtime relocation entries,
	// which only position independent binaries carry.
	ErrNeedsPIE = errors.New("irlower: position dependent code is not supported (runtime relocations required)")
	// ErrExceptions: C++ exceptions are a known limitation.
	ErrExceptions = errors.New("irlower: C++ exceptions are not supported")
	// ErrGoMeta: Go binaries carry unsupported metadata and a runtime
	// that natively unwinds the stack.
	ErrGoMeta = errors.New("irlower: unsupported meta-data in Go binary")
	// ErrRustMeta: Rust metadata (as in Firefox's libxul.so) is not
	// supported.
	ErrRustMeta = errors.New("irlower: unsupported Rust meta-data")
	// ErrSymbolVersioning: symbol versioning information (common in C++
	// shared libraries such as libcuda.so) cannot be rewritten.
	ErrSymbolVersioning = errors.New("irlower: cannot rewrite symbol versioning information")
	// ErrIncomplete: one function resisted analysis, and IR lowering is
	// all-or-nothing.
	ErrIncomplete = errors.New("irlower: incomplete binary analysis")
)

// IRLowerOptions configure the IR lowering baseline.
type IRLowerOptions struct {
	Request instrument.Request
}

// IRLower rewrites the binary the way Egalito/RetroWrite-style IR
// lowering does: lift everything (all-or-nothing), rewrite all direct
// and indirect control flow using runtime relocation entries, and emit
// regenerated code as the new text section — no trampolines, near-zero
// runtime overhead, and near-zero size increase, at the price of the
// generality restrictions encoded in the error values above.
func IRLower(b *bin.Binary, opts IRLowerOptions) (*core.Result, error) {
	if !b.PIE {
		return nil, ErrNeedsPIE
	}
	if b.UsesExceptions() {
		return nil, ErrExceptions
	}
	if b.GoRuntime() {
		return nil, ErrGoMeta
	}
	if strings.Contains(b.Lang(), "rust") {
		return nil, ErrRustMeta
	}
	if b.Meta["symbol-versioning"] == "1" {
		return nil, ErrSymbolVersioning
	}
	res, err := core.Rewrite(b, core.Options{
		Mode:    core.ModeFuncPtr,
		Request: opts.Request,
		Verify:  true, // old text is dropped below; nothing may reach it
		Variant: core.Variant{
			FailOnAnyError: true,
			NoTrampolines:  true,
		},
	})
	if err != nil {
		if errors.Is(err, core.ErrImpreciseFuncPtrs) {
			return nil, fmt.Errorf("%w: %v", ErrGoMeta, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrIncomplete, err)
	}

	// The relocated code becomes the program: drop the original text,
	// promote .instr, and enter at the relocated entry point.
	nb := res.Binary
	newEntry, ok := res.Relocated(b.Entry)
	if !ok && !b.SharedLib {
		return nil, fmt.Errorf("%w: entry point was not relocated", ErrIncomplete)
	}
	nb.RemoveSection(bin.SecText)
	nb.RemoveSection(bin.SecTrampMap)
	instr := nb.Section(bin.SecInstr)
	if instr == nil {
		return nil, fmt.Errorf("irlower: missing relocated code section")
	}
	instr.Name = bin.SecText
	if !b.SharedLib {
		nb.Entry = newEntry
	}
	retargetSymbols(nb, res.Relocated)
	res.Stats.NewLoadedSize = nb.LoadedSize()
	if err := nb.Validate(); err != nil {
		return nil, fmt.Errorf("irlower: regenerated binary invalid: %w", err)
	}
	return res, nil
}
