package core

import (
	"fmt"
	"io"
	"time"
)

// reverseUnits applies the ReverseFuncs ablation: functions relocate in
// reverse symbol order (counter cells keep their symbol-order
// assignment, matching the serial rewriter).
func (p *PatchPlan) reverseUnits() {
	for i, j := 0, len(p.units)-1; i < j; i, j = i+1, j-1 {
		p.units[i], p.units[j] = p.units[j], p.units[i]
	}
}

// PlanFor builds and lays out the patch plan for one request without
// cloning or mutating the binary: the plan and layout stages run, the
// emit stage does not. It is the inspection entry point behind
// icfg-objdump -plan; opts must carry the mode and variant the analysis
// was built with.
func (an *Analysis) PlanFor(opts Options) (*PatchPlan, error) {
	var mx Metrics
	clock := time.Now()
	return an.plan(opts, &mx, &clock)
}

// Dump renders the laid-out plan for debugging: the section plan, every
// unit's items with their resolved targets and expansion states, and
// the planned trampoline jobs.
func (p *PatchPlan) Dump(w io.Writer) {
	b := p.an.Binary
	fmt.Fprintf(w, "patch plan: arch=%s mode=%s units=%d clones=%d\n",
		b.Arch, p.mode, len(p.units), len(p.clones))
	if p.nextCell > p.counterBase {
		fmt.Fprintf(w, "  counters      [%#x,%#x)\n", p.counterBase, p.nextCell)
	}
	if p.prof != nil {
		fmt.Fprintf(w, "  profile       hash=%s hot=%d variants=%d\n", p.prof.Hash()[:12], len(p.varAddr), len(p.varAddr))
	}
	if p.selEnd > p.selBase {
		fmt.Fprintf(w, "  selectors     [%#x,%#x)\n", p.selBase, p.selEnd)
	}
	for _, mv := range p.sections.moves {
		fmt.Fprintf(w, "  move %-12s [%#x,%#x) -> %#x scratch=%t\n",
			mv.name, mv.oldAddr, mv.oldEnd, mv.addr, mv.scratch)
	}
	if len(p.clones) > 0 {
		fmt.Fprintf(w, "  clones        base %#x (%d bytes)\n", p.sections.cloneBase, p.cloneBytes())
		for i, c := range p.clones {
			fmt.Fprintf(w, "    clone %d owner=%s addr=%#x entries=%d entry-size=%d\n",
				i, c.unit.fn.Name, c.addr, c.tbl.Count, c.newEntry)
		}
	}
	fmt.Fprintf(w, "  instr         [%#x,%#x)\n", p.instrBase, p.instrEnd)
	for _, u := range p.units {
		fmt.Fprintf(w, "unit %s: start %#x, %d items%s\n", u.fn.Name, u.start, len(u.items), p.unitTier(u))
		for i := range u.items {
			it := &u.items[i]
			fmt.Fprintf(w, "  %#x len=%-2d %s", it.newAddr, it.newLen, it.ins.Kind)
			if it.ins.Addr != 0 {
				fmt.Fprintf(w, " orig=%#x", it.ins.Addr)
			} else {
				fmt.Fprintf(w, " inserted")
			}
			if it.tk != tkNone {
				fmt.Fprintf(w, " %s -> %#x (%s)", it.pf, p.resolveTarget(it), targetKindNames[it.tk])
			}
			if it.expand != 0 {
				fmt.Fprintf(w, " expand=%s", it.expand)
			}
			if it.ra != raNone {
				fmt.Fprintf(w, " ra")
			}
			fmt.Fprintln(w)
		}
	}
	// The dump prints every superblock's scratch register, so it
	// computes the liveness a Patch may never need.
	for _, ft := range p.tramps {
		if len(ft.pl.sbs) == 0 {
			continue
		}
		fmt.Fprintf(w, "trampolines %s: cfl=%d scratch-blocks=%d\n", ft.fn.Name, ft.cflBlocks(), ft.scratchBlocks())
		for _, sb := range ft.pl.sbs {
			to, _ := p.reloc.get(sb.Start)
			fmt.Fprintf(w, "  superblock %#x space=%d scratch=%s -> %#x\n",
				sb.Start, sb.Space, p.an.scratchAt(ft.idx, sb.Block.Start), to)
		}
	}
}

// unitTier annotates a unit's variant/placement tier under profile
// guidance: hot functions carry a fast variant behind a dispatch stub,
// cold ones relocate single-variant. Empty without a profile.
func (p *PatchPlan) unitTier(u *planUnit) string {
	if p.prof == nil {
		return ""
	}
	if u.varSlot >= 0 {
		return fmt.Sprintf(" [tier=hot variants=2 sel=%#x fast=%#x heat=%d]",
			u.selCell, p.varAddr[u.varSlot], p.profCount[u.fn.Name])
	}
	return fmt.Sprintf(" [tier=cold variants=1 heat=%d]", p.profCount[u.fn.Name])
}

// targetKindNames names each targetKind for plan dumps.
var targetKindNames = [...]string{tkNone: "none", tkAbs: "abs", tkMapped: "mapped", tkClone: "clone",
	tkFuncBase: "func-base", tkVarEntry: "var-entry", tkLocal: "local"}
