// Command icfg-objdump inspects a serialised binary: section layout,
// symbols, relocations, metadata, a full disassembly, and — with -plan —
// the staged patch plan the rewriter would execute (plan and layout
// stages only; nothing is emitted or mutated).
//
// Usage:
//
//	icfg-objdump [-d] [-funcs] [-cfg] [-marks] [-plan [-with-profile heat.icfgprf]] [-mode m] [-sym func] file.icfg
//	icfg-objdump -profile heat.icfgprf
//
// -cfg, -marks and -plan inspect one core.Analyze of the binary in
// -mode (default jt): the graph, evidence and plan the rewriter itself
// would use. -cfg prints each function's blocks, edges and jump tables.
// -marks lists the landing-pad marker sites per function with their
// evidence-source attribution (which pointer sources and jump tables
// reference each marked address) and the analysis's trust decision.
//
// -profile treats the file as a block-heat profile artifact (as written
// by icfg-rewrite -profile-out) and dumps it: per-function heat, block
// counts, and each function's hot/cold placement tier under the mean
// threshold. -with-profile feeds an artifact into -plan, so the dumped
// plan shows the variant each function was assigned (dispatch stubs,
// fast bodies, selector cells) instead of the unguided layout.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
	"icfgpatch/internal/service/wire"
)

// analyze runs core.Analyze on img in the named mode: -cfg, -marks and
// -plan all inspect the analysis the rewriter itself would run.
func analyze(img *bin.Binary, modeName string) *core.Analysis {
	mode, err := wire.ParseMode(modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
		os.Exit(2)
	}
	an, err := core.Analyze(img, core.AnalysisConfig{Mode: mode})
	if err != nil {
		fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
		os.Exit(1)
	}
	return an
}

// printCFG prints each function's blocks, edges and resolved jump
// tables from the analysis's graph.
func printCFG(g *cfg.Graph, symSel string) {
	kinds := map[cfg.EdgeKind]string{
		cfg.EdgeFall: "fall", cfg.EdgeJump: "jump", cfg.EdgeCond: "cond",
		cfg.EdgeCallFall: "call-fall", cfg.EdgeIndirect: "indirect",
	}
	for _, f := range g.Funcs {
		if symSel != "" && f.Name != symSel {
			continue
		}
		status := "ok"
		if f.Err != nil {
			status = "FAILED: " + f.Err.Error()
		}
		fmt.Printf("%sfunc %s [%#x,%#x) blocks=%d %s%s", "\n", f.Name, f.Entry, f.End, len(f.Blocks), status, "\n")
		for _, blk := range f.Blocks {
			fmt.Printf("  block %#x..%#x (%d instrs) ends %s%s", blk.Start, blk.End, len(blk.Instrs), blk.Last().Kind, "\n")
			for _, e := range blk.Succs {
				fmt.Printf("    -> %#x (%s)%s", e.To, kinds[e.Kind], "\n")
			}
		}
		for _, ij := range f.IndirectJumps {
			switch {
			case ij.Table != nil:
				fmt.Printf("  jump table @%#x: %d entries of %d bytes at %#x (exact=%v)%s",
					ij.Addr, ij.Table.Count, ij.Table.EntrySize, ij.Table.TableAddr, ij.Table.BoundExact, "\n")
			case ij.TailCall:
				fmt.Printf("  indirect tail call @%#x%s", ij.Addr, "\n")
			default:
				fmt.Printf("  unresolved indirect jump @%#x: %v%s", ij.Addr, ij.Err, "\n")
			}
		}
	}
}

// printMarks lists the landing-pad marker sites the analysis's
// evidence layer found, grouped per function, with each site's
// evidence-source attribution: which ranked pointer sources (reloc,
// data-cell, code-imm) and which resolved jump tables reference the
// address. The header states the analysis's trust decision, so the
// listing doubles as a diagnostic for why a CFI build did (or did not)
// take the evidence-enabled func-ptr path.
func printMarks(an *core.Analysis, symSel string) {
	img, g, ev := an.Binary, an.Graph, an.Evidence
	trust := "untrusted"
	switch {
	case ev.Trusted:
		trust = "trusted"
	case ev.Corrupt:
		trust = "CORRUPT"
	}
	fmt.Printf("\nlanding pads: %d marker sites  cfi=%v  evidence %s\n",
		ev.Marks.Count(), img.CFI(), trust)
	if ev.Marks.Count() == 0 {
		return
	}

	// Attribute each marker address to the evidence sources referencing
	// it. The pointer sweep can refuse (ErrImprecise on a marker-less or
	// corrupt build); the mark listing still prints, just without pointer
	// attribution.
	refs := map[uint64][]string{}
	addRef := func(addr uint64, src string) {
		for _, have := range refs[addr] {
			if have == src {
				return
			}
		}
		refs[addr] = append(refs[addr], src)
	}
	sites, perr := ev.FuncPointers(img, g)
	for _, s := range sites {
		addRef(s.Value, s.Kind.String())
	}
	for _, f := range g.Funcs {
		for _, ij := range f.IndirectJumps {
			if ij.Table == nil {
				continue
			}
			for _, t := range ij.Table.Targets {
				addRef(t, analysis.SourceJumpTable.String())
			}
		}
	}

	for _, addr := range ev.Marks.Addrs() {
		f, inFunc := g.FuncContaining(addr)
		name, role := "(outside functions)", ""
		if inFunc {
			name = f.Name
			if addr == f.Entry {
				role = "entry"
			} else {
				role = fmt.Sprintf("+%#x", addr-f.Entry)
			}
		}
		if symSel != "" && name != symSel {
			continue
		}
		srcs := "-"
		if len(refs[addr]) > 0 {
			srcs = strings.Join(refs[addr], ",")
		}
		fmt.Printf("  %#10x  %-30s %-8s %s\n", addr, name, role, srcs)
	}

	fmt.Println("\nevidence sources:")
	for _, k := range []analysis.SourceKind{
		analysis.SourceLandingPad, analysis.SourceReloc,
		analysis.SourceDataCell, analysis.SourceCodeImm,
	} {
		fmt.Printf("  %-12s %d\n", k, ev.Counts[k])
	}
	tables := 0
	for _, f := range g.Funcs {
		for _, ij := range f.IndirectJumps {
			if ij.Table != nil {
				tables++
			}
		}
	}
	fmt.Printf("  %-12s %d\n", analysis.SourceJumpTable, tables)
	if ev.Skipped > 0 {
		fmt.Printf("  skipped      %d (candidates proven unreachable by markers)\n", ev.Skipped)
	}
	if perr != nil {
		fmt.Printf("  pointer attribution incomplete: %v\n", perr)
	}
}

// printFuncHashes lists every function with the content hash the
// incremental-analysis layer keys its units by. Stripped binaries fall
// back to discovered entry points, matching what the delta engine
// itself would hash.
func printFuncHashes(img *bin.Binary) {
	syms := img.FuncSymbols()
	if len(syms) == 0 {
		var err error
		if syms, err = cfg.DiscoverFunctions(img); err != nil {
			fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("\n%d functions:\n", len(syms))
	hashes := img.FuncContentHashes(syms)
	for k, sym := range syms {
		fmt.Printf("  %#10x %8d  %s  %s\n", sym.Addr, sym.Size, hex.EncodeToString(hashes[k][:]), sym.Name)
	}
}

// printPlan runs the rewriter's plan and layout stages — no emission,
// no binary mutation — and dumps the laid-out PatchPlan: section moves,
// per-unit relocation items with resolved targets and expansion states,
// and the planned trampoline jobs. -sym restricts instrumentation to one
// function.
func printPlan(an *core.Analysis, symSel, profPath string) {
	opts := core.Options{Mode: an.Config.Mode, Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}}
	if profPath != "" {
		// Guided plans are inspected under the request shape that engages
		// variant planning: full block-entry counters.
		opts.Request.Payload = instrument.PayloadCounter
		opts.Profile = readProfile(profPath)
	}
	if symSel != "" {
		opts.Request.Funcs = []string{symSel}
	}
	p, err := an.PlanFor(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
		os.Exit(1)
	}
	fmt.Println()
	p.Dump(os.Stdout)
}

// readProfile loads and decodes a profile artifact, exiting on failure
// — inspection of a named artifact wants the decode error, not the
// rewriter's silent degradation.
func readProfile(path string) *profile.Profile {
	pb, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
		os.Exit(1)
	}
	p, err := profile.Decode(pb)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfg-objdump: %s: %v\n", path, err)
		os.Exit(1)
	}
	return p
}

// printProfile dumps a block-heat profile artifact: the capture
// identity, aggregate heat, and per-function heat with the hot/cold
// tier the planner would assign under the mean threshold.
func printProfile(path string) {
	p := readProfile(path)
	fmt.Printf("profile %s\n", path)
	fmt.Printf("  binary hash   %s\n", orDash(p.BinaryHash))
	fmt.Printf("  arch          %s\n", p.Arch)
	fmt.Printf("  functions     %d\n", len(p.Funcs))
	fmt.Printf("  total heat    %d\n", p.TotalCount)
	hot := p.HotFuncs()
	fmt.Printf("  hot set       %d funcs\n", len(hot))
	fmt.Println()
	fmt.Printf("  %-30s %10s %7s %12s %8s  %s\n", "function", "entry", "blocks", "heat", "share", "tier")
	for _, f := range p.Funcs {
		tier := "cold"
		switch {
		case hot[f.Name]:
			tier = "hot"
		case f.Count == 0:
			tier = "dead"
		}
		share := 0.0
		if p.TotalCount > 0 {
			share = 100 * float64(f.Count) / float64(p.TotalCount)
		}
		fmt.Printf("  %-30s %#10x %7d %12d %7.2f%%  %s\n", f.Name, f.Entry, f.Blocks, f.Count, share, tier)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printAddrMaps decodes the rewriter's address-map sections (.ra_map,
// .tramp_map) entry by entry rather than leaving them as opaque bytes.
func printAddrMaps(img *bin.Binary) {
	for _, name := range []string{bin.SecRAMap, bin.SecTrampMap} {
		s := img.Section(name)
		if s == nil {
			continue
		}
		pairs, err := bin.DecodeAddrMap(s.Data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icfg-objdump: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s: %d entries\n", name, len(pairs))
		for _, p := range pairs {
			fmt.Printf("  %#10x -> %#10x\n", p.From, p.To)
		}
	}
}

// addrMapSummary annotates an address-map section's row in the section
// table with its decoded entry count.
func addrMapSummary(s *bin.Section) string {
	if s.Name != bin.SecRAMap && s.Name != bin.SecTrampMap {
		return ""
	}
	pairs, err := bin.DecodeAddrMap(s.Data)
	if err != nil {
		return fmt.Sprintf("  (corrupt map: %v)", err)
	}
	return fmt.Sprintf("  (%d map entries)", len(pairs))
}

func main() {
	disas := flag.Bool("d", false, "disassemble function symbols")
	showCFG := flag.Bool("cfg", false, "print control flow graphs (blocks, edges, jump tables)")
	ramap := flag.Bool("ramap", false, "decode .ra_map/.tramp_map sections entry by entry")
	funcs := flag.Bool("funcs", false, "print each function's address, size, and content hash")
	marks := flag.Bool("marks", false, "list landing-pad marker sites per function with evidence-source attribution")
	plan := flag.Bool("plan", false, "dump the staged patch plan (plan + layout stages, no emission)")
	mode := flag.String("mode", "jt", "rewriting mode the -cfg, -marks and -plan analysis runs in: dir, jt, func-ptr")
	symSel := flag.String("sym", "", "disassemble (or with -plan, instrument) only this function")
	profDump := flag.Bool("profile", false, "treat file as a block-heat profile artifact and dump it")
	withProf := flag.String("with-profile", "", "with -plan: guide the plan with this profile artifact (implies counter payload)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: icfg-objdump [-d] [-cfg] [-ramap] [-funcs] [-marks] [-plan [-with-profile p]] [-mode m] [-sym name] file.icfg")
		fmt.Fprintln(os.Stderr, "       icfg-objdump -profile heat.icfgprf")
		os.Exit(2)
	}
	if *profDump {
		printProfile(flag.Arg(0))
		return
	}
	img, err := bin.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "icfg-objdump:", err)
		os.Exit(1)
	}

	fmt.Printf("arch %s  pie=%v  shared=%v  entry %#x\n", img.Arch, img.PIE, img.SharedLib, img.Entry)
	keys := make([]string, 0, len(img.Meta))
	for k := range img.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  meta %s=%s\n", k, img.Meta[k])
	}
	fmt.Println("\nsections:")
	for _, s := range img.Sections {
		flags := ""
		if s.Flags&bin.FlagAlloc != 0 {
			flags += "A"
		}
		if s.Flags&bin.FlagExec != 0 {
			flags += "X"
		}
		if s.Flags&bin.FlagWrite != 0 {
			flags += "W"
		}
		fmt.Printf("  %-16s %#10x..%#10x %8d %s%s\n", s.Name, s.Addr, s.End(), s.Size(), flags, addrMapSummary(s))
	}
	fmt.Printf("\n%d symbols, %d dynamic, %d runtime relocs, %d link relocs\n",
		len(img.Symbols), len(img.DynSymbols), len(img.Relocs), len(img.LinkRelocs))

	if *marks {
		printMarks(analyze(img, *mode), *symSel)
		return
	}
	if *plan {
		printPlan(analyze(img, *mode), *symSel, *withProf)
		return
	}
	if *ramap {
		printAddrMaps(img)
		return
	}
	if *funcs {
		printFuncHashes(img)
		return
	}
	if *showCFG {
		printCFG(analyze(img, *mode).Graph, *symSel)
		return
	}
	if !*disas && *symSel == "" {
		return
	}
	text := img.Text()
	for _, sym := range img.FuncSymbols() {
		if *symSel != "" && sym.Name != *symSel {
			continue
		}
		fmt.Printf("\n%08x <%s>:\n", sym.Addr, sym.Name)
		if text == nil || !text.Contains(sym.Addr) {
			fmt.Println("  (outside text)")
			continue
		}
		// A corrupt symbol table can declare a size past the section;
		// clamp instead of letting the slice expression panic.
		end := sym.Addr + sym.Size
		if end > text.End() {
			fmt.Printf("  (symbol size %d overruns text; truncating)\n", sym.Size)
			end = text.End()
		}
		data := text.Data[sym.Addr-text.Addr : end-text.Addr]
		for _, ins := range arch.DecodeAll(img.Arch, data, sym.Addr) {
			target := ""
			if t, ok := ins.Target(); ok {
				if f, ok2 := img.FuncAt(t); ok2 {
					target = fmt.Sprintf("  <%s+%#x>", f.Name, t-f.Addr)
				}
			}
			fmt.Printf("  %8x: %s%s\n", ins.Addr, ins, target)
		}
	}
}
