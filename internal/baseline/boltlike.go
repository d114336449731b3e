package baseline

import (
	"errors"
	"fmt"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
)

// ErrNeedsLinkRelocs reproduces BOLT's refusal verbatim: function
// reordering needs link-time relocations, which linkers strip unless the
// program was linked with -Wl,-q — even PIEs with runtime relocations
// are rejected (Section 8.3).
var ErrNeedsLinkRelocs = errors.New("BOLT-ERROR: function reordering only works when relocations are enabled")

// BOLTReorderFunctions reverses the order of all functions, BOLT-style:
// it requires link-time relocations and regenerates the text.
func BOLTReorderFunctions(b *bin.Binary) (*core.Result, error) {
	if len(b.LinkRelocs) == 0 {
		return nil, ErrNeedsLinkRelocs
	}
	return boltRewrite(b, core.Variant{ReverseFuncs: true, FailOnAnyError: true, NoTrampolines: true})
}

// BOLTReorderBlocks reverses the order of blocks within each function
// while keeping function order. BOLT performs this without link-time
// relocations, but its layout machinery has the bug the paper observed:
// for binaries containing jump tables, the regenerated image carries bad
// .interp data and cannot be loaded.
func BOLTReorderBlocks(b *bin.Binary) (*core.Result, error) {
	res, err := boltRewrite(b, core.Variant{ReverseBlocks: true, FailOnAnyError: true, NoTrampolines: true})
	if err != nil {
		return nil, err
	}
	if hasFragileJumpTables(b) {
		// The layout bug: the interpreter path is clobbered during
		// section rewriting. The image builds but will not load.
		if s := res.Binary.Section(bin.SecInterp); s != nil && len(s.Data) > 0 {
			data := s.MutableData() // the result may share untouched sections with the input
			for i := range data {
				data[i] = 0
			}
		}
	}
	return res, nil
}

// boltRewrite regenerates the binary with the given reordering, the
// IR-lowering flow (BOLT is an optimizer: the rewritten code replaces
// the original).
func boltRewrite(b *bin.Binary, v core.Variant) (*core.Result, error) {
	mode := core.ModeFuncPtr
	if !b.PIE && len(b.LinkRelocs) == 0 {
		// Without relocations of any kind, BOLT keeps function entries
		// in place... our model still needs pointer rewriting, so fall
		// back to jt mode and keep entry trampolines.
		mode = core.ModeJT
		v.NoTrampolines = false
	}
	res, err := core.Rewrite(b, core.Options{
		Mode:    mode,
		Request: instrument.Request{Where: instrument.FuncEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
		Variant: v,
	})
	if err != nil {
		return nil, fmt.Errorf("bolt: %w", err)
	}
	if v.NoTrampolines {
		nb := res.Binary
		newEntry, ok := res.Relocated(b.Entry)
		if !ok && !b.SharedLib {
			return nil, fmt.Errorf("bolt: entry not relocated")
		}
		nb.RemoveSection(bin.SecText)
		nb.RemoveSection(bin.SecTrampMap)
		instr := nb.Section(bin.SecInstr)
		instr.Name = bin.SecText
		if !b.SharedLib {
			nb.Entry = newEntry
		}
		retargetSymbols(nb, res.Relocated)
		res.Stats.NewLoadedSize = nb.LoadedSize()
		if err := nb.Validate(); err != nil {
			return nil, fmt.Errorf("bolt: %w", err)
		}
	}
	return res, nil
}

// hasFragileJumpTables reports whether the binary contains two or more
// jump tables whose bounds are not provable from a visible bounds check
// — the table-size situation BOLT's layout machinery mis-handles,
// clobbering .interp in the regenerated image (Section 8.3 observed 10
// of 19 SPEC binaries corrupted).
func hasFragileJumpTables(b *bin.Binary) bool {
	an, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		return false
	}
	fragile := 0
	for _, f := range an.Graph.Funcs {
		for _, ij := range f.IndirectJumps {
			if ij.Table != nil && !ij.Table.BoundExact {
				fragile++
			}
		}
	}
	return fragile >= 2
}
