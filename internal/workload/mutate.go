package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// MutateVersion derives "version 2" of a binary for incremental-rewrite
// experiments: it clones b and perturbs k of its functions with a
// length-stable, semantics-local edit — flipping the low bit of a small
// ALU immediate on an accumulator register. The edit models the typical
// content of a point release (changed constants, tweaked arithmetic)
// while deliberately leaving every function's size, control flow, and
// jump-table data untouched, so exactly the mutated functions' content
// hashes change.
//
// The choice of functions and sites is deterministic in seed. It
// returns the mutated clone and the sorted names of the functions
// actually mutated; an error if fewer than k functions have a mutable
// site.
func MutateVersion(b *bin.Binary, k int, seed int64) (*bin.Binary, []string, error) {
	syms := b.FuncSymbols()
	text := b.Text()
	if text == nil {
		return nil, nil, fmt.Errorf("workload: mutate: binary has no text section")
	}
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(len(syms))

	clone := b.Clone()
	enc := arch.ForArch(b.Arch)
	var mutated []string
	for _, i := range order {
		if len(mutated) == k {
			break
		}
		sym := syms[i]
		if sym.Size == 0 {
			continue
		}
		site, ok := mutationSite(b, sym)
		if !ok {
			continue
		}
		ins := site
		ins.Imm ^= 1
		raw, err := enc.Append(nil, ins)
		if err != nil {
			return nil, nil, fmt.Errorf("workload: mutate %s at %#x: %w", sym.Name, site.Addr, err)
		}
		if len(raw) != site.EncLen {
			// Length-stable by construction: both immediates are small and
			// the synthetic ISA's encodings are fixed per kind.
			return nil, nil, fmt.Errorf("workload: mutate %s at %#x: encoding length changed (%d -> %d)",
				sym.Name, site.Addr, site.EncLen, len(raw))
		}
		if err := clone.WriteAt(site.Addr, raw); err != nil {
			return nil, nil, fmt.Errorf("workload: mutate %s: %w", sym.Name, err)
		}
		mutated = append(mutated, sym.Name)
	}
	if len(mutated) < k {
		return nil, nil, fmt.Errorf("workload: mutate: only %d of %d requested functions have a mutable site", len(mutated), k)
	}
	sort.Strings(mutated)
	return clone, mutated, nil
}

// mutationSite linearly decodes the function and returns its first
// safely mutable instruction: an add-immediate onto one of the
// generator's accumulator registers (R0, R1, R3) with a small
// immediate. Small immediates keep the flip length-stable on every
// arch and cannot collide with the jump-table boundary hints the
// resolver scans for (those are text addresses, far above 1000).
func mutationSite(b *bin.Binary, sym bin.Symbol) (arch.Instr, bool) {
	text := b.SectionAt(sym.Addr)
	if text == nil {
		return arch.Instr{}, false
	}
	data := text.Data[sym.Addr-text.Addr : sym.Addr+sym.Size-text.Addr]
	for _, ins := range arch.DecodeAll(b.Arch, data, sym.Addr) {
		if ins.Kind != arch.ALUImm && ins.Kind != arch.AddImm16 {
			continue
		}
		if ins.Op != arch.Add {
			continue
		}
		if !accumulatorReg(ins.Rd) || !accumulatorReg(ins.Rs1) {
			continue
		}
		if ins.Imm < 0 || ins.Imm > 1000 {
			continue
		}
		return ins, true
	}
	return arch.Instr{}, false
}

func accumulatorReg(r arch.Reg) bool {
	return r == arch.R0 || r == arch.R1 || r == arch.R3
}
