// Package dataflow provides the register liveness analysis used to find
// scratch registers for long trampolines (Section 7) and the backward
// slicing / symbolic evaluation machinery that jump-table analysis
// (Section 5.1) is built on.
package dataflow

import (
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/cfg"
)

// abiLiveAtExit is the conservative register set live when control
// leaves a function: the return value, the stack pointer, the link
// register, and the TOC base.
func abiLiveAtExit() arch.RegSet {
	var s arch.RegSet
	return s.Add(arch.R0).Add(arch.SP).Add(arch.LR).Add(arch.TOCReg)
}

// abiCallUses is the set a call site is assumed to read: argument
// registers plus stack and TOC.
func abiCallUses() arch.RegSet {
	var s arch.RegSet
	return s.Add(arch.R1).Add(arch.R2).Add(arch.R3).Add(arch.R4).Add(arch.R5).Add(arch.SP)
}

// Liveness computes per-block live-in register sets with a standard
// backward fixpoint. The analysis is deliberately conservative at
// unresolved indirect jumps (everything is live — the unknown target
// could read any register), which is what pushes the rewriter toward
// spill trampolines or traps exactly where binary analysis ran out of
// precision.
type Liveness struct {
	// liveIn is indexed like fn.Blocks. known marks the blocks whose
	// sets the fixpoint ever changed from empty; a block it never
	// touched answers LiveIn as an unknown block does.
	liveIn []arch.RegSet
	known  []bool
	fn     *cfg.Func
	arch   arch.Arch
}

// ComputeLiveness analyses one function. Each block's instructions are
// summarised once as live-in = (live-out − kill) ∪ gen, and successors
// are resolved to block indices once, so a fixpoint round costs one
// set operation per block and edge.
func ComputeLiveness(a arch.Arch, f *cfg.Func) *Liveness {
	n := len(f.Blocks)
	lv := &Liveness{liveIn: make([]arch.RegSet, n), known: make([]bool, n), fn: f, arch: a}
	liveOut := make([]arch.RegSet, n)
	gen, kill, exit := make([]arch.RegSet, n), make([]arch.RegSet, n), make([]arch.RegSet, n)
	succStart := make([]int32, n+1)
	var succs []int32
	for i, blk := range f.Blocks {
		gen[i], kill[i] = lv.summary(blk)
		exit[i] = lv.exitSet(blk)
		for _, e := range blk.Succs {
			// An edge to no block reads as an empty live-in set.
			if j, ok := blockIndex(f, e.To); ok {
				succs = append(succs, int32(j))
			}
		}
		succStart[i+1] = int32(len(succs))
	}
	changed := true
	for rounds := 0; changed && rounds < 64; rounds++ {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := exit[i]
			for _, j := range succs[succStart[i]:succStart[i+1]] {
				out = out.Union(lv.liveIn[j])
			}
			in := out.Minus(kill[i]).Union(gen[i])
			if in != lv.liveIn[i] || out != liveOut[i] {
				lv.liveIn[i], liveOut[i] = in, out
				lv.known[i] = true
				changed = true
			}
		}
	}
	return lv
}

// blockIndex returns the position in f.Blocks of the block starting at
// addr.
func blockIndex(f *cfg.Func, addr uint64) (int, bool) {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start >= addr })
	return i, i < len(f.Blocks) && f.Blocks[i].Start == addr
}

// exitSet returns the registers live because of how the block leaves
// the function (none for blocks with only intra-procedural successors).
func (lv *Liveness) exitSet(blk *cfg.Block) arch.RegSet {
	last := blk.Last()
	switch last.Kind {
	case arch.Ret, arch.Halt:
		return abiLiveAtExit()
	case arch.Throw:
		var s arch.RegSet
		return s.Add(arch.R1).Add(arch.SP)
	case arch.Branch:
		// Direct tail call out of the function.
		if t, _ := last.Target(); !lv.fn.Contains(t) {
			return abiLiveAtExit().Union(abiCallUses())
		}
	case arch.JumpInd:
		if len(blk.Succs) == 0 {
			// Unresolved indirect jump or indirect tail call: assume
			// everything is live.
			return arch.AllGP().Add(arch.LR).Add(arch.TOCReg).Add(arch.SP)
		}
	}
	return 0
}

// summary folds the block's instructions, last to first, into the gen
// and kill sets of its transfer function: live-in = (out − kill) ∪ gen.
// Applying one instruction, live' = (live − defs) ∪ uses, composes as
// kill' = kill ∪ defs and gen' = (gen − defs) ∪ uses.
func (lv *Liveness) summary(blk *cfg.Block) (gen, kill arch.RegSet) {
	for i := len(blk.Instrs) - 1; i >= 0; i-- {
		ins := blk.Instrs[i]
		defs, uses := ins.Defs(lv.arch), ins.Uses(lv.arch)
		if ins.IsCall() {
			uses = uses.Union(abiCallUses())
		}
		kill = kill.Union(defs)
		gen = gen.Minus(defs).Union(uses)
	}
	return gen, kill
}

// LiveIn returns the registers live at the block's entry — the set a
// trampoline installed at the block must preserve.
func (lv *Liveness) LiveIn(blockStart uint64) arch.RegSet {
	i, ok := blockIndex(lv.fn, blockStart)
	if !ok || !lv.known[i] {
		// Unknown block: assume everything is live.
		return arch.AllGP().Add(arch.LR).Add(arch.TOCReg).Add(arch.SP)
	}
	return lv.liveIn[i]
}

// DeadAt returns a general-purpose scratch register dead at the block's
// entry, or NoReg when liveness finds none (PPC then spills; A64 falls
// back to a trap, Section 7).
func (lv *Liveness) DeadAt(blockStart uint64) arch.Reg {
	live := lv.LiveIn(blockStart)
	// Prefer high caller-saved registers, skipping conventional argument
	// registers to keep the choice away from hot values.
	for r := arch.R14; r >= arch.R6; r-- {
		if !live.Has(r) {
			return r
		}
	}
	for r := arch.R5; r >= arch.R3; r-- {
		if !live.Has(r) {
			return r
		}
	}
	return arch.NoReg
}
