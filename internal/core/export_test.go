package core

import "sort"

// Dependents returns the sorted names of functions whose dependency
// index references any name in changed, excluding the changed functions
// themselves — the "dependents" half of the delta engine's recompute
// bound (changed ∪ dependents ⊇ recomputed). The units must come from a
// store-backed Analyze: cold units carry no dependency index.
func Dependents(units []*FuncUnit, changed map[string]bool) []string {
	var out []string
	for _, u := range units {
		if changed[u.Name] {
			continue
		}
		for _, d := range u.Deps {
			if changed[d.Name] {
				out = append(out, u.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
