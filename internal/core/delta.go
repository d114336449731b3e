// Function-granular incremental analysis: the delta engine's identities,
// units, dependency index, and store.
//
// One FuncUnit is everything Analyze computes for one function: its CFG
// (with resolved jump tables), the resolver's recorded read set, the
// dependency index edges, and the lazily memoised trampoline placement
// inputs. Units are content-addressed by UnitKey — a hash of the
// function's own content (bytes, in-range relocations, catch pads) and
// the binary-wide invariants the analysis silently depends on — crossed
// with arch × mode × variant (landing-pad evidence forks the identity
// hash itself; see Analyze).
//
// A unit from a previous binary version may be reused only when every
// way the new version could change its analysis has been ruled out:
//
//   - its own identity hash is unchanged (UnitKey equality);
//   - every dependency-index edge still points at an unchanged function
//     (callees and read-range owners, compared by identity hash);
//   - the resolver's recorded read set replays identically: the same
//     table bytes at the same addresses, the same failed reads, the
//     same boundary-hint answers from the new binary's boundary scan.
//
// Anything else recomputes. Correctness of delta assembly — a delta
// rewrite must be byte-identical to a cold rewrite — follows from this
// conservatism: a reused unit is indistinguishable, input by input,
// from the unit a cold analysis would have built.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/store"
	"icfgpatch/internal/unwind"
)

// UnitKey addresses one function-granular analysis unit.
type UnitKey struct {
	// ID is the function's identity hash: bin.FuncContentHashes plus the
	// catch pads landing in the function and the delta environment (see
	// unitID).
	ID      [32]byte
	Arch    arch.Arch
	Mode    Mode
	Variant Variant
}

// Dep is one edge of the dependency index: this unit's analysis was
// built while the named function had the given identity hash. A
// mismatch in the new version invalidates the unit.
type Dep struct {
	Name string
	ID   [32]byte
}

// FuncUnit is one function's cached analysis. Key, Deps and Reads serve
// only the unit store's reuse validation: a unit built without a store
// carries none of them.
type FuncUnit struct {
	Key  UnitKey
	Name string
	// Fn is the function's CFG, immutable after the build. Reusing a
	// unit shares the pointer: graphs assembled for different binary
	// versions may alias unchanged functions, which is safe because
	// Patch never mutates the graph.
	Fn *cfg.Func
	// Deps is the dependency index: direct callees and the owners of
	// read ranges, by name and identity hash at build time.
	Deps []Dep
	// Reads is the resolver's recorded read set: table bytes consulted
	// and boundary-hint queries answered during this unit's analysis.
	Reads *analysis.Recording

	// place memoises the trampoline placement inputs (CFL set,
	// superblocks, and liveness on first need) across every Patch of
	// every Analysis the unit is assembled into.
	place funcPlacement
}

// validFor reports whether the unit may stand in for a fresh analysis
// of the same-identity function in binary b: all dependency edges
// unchanged and the read set replaying identically.
func (u *FuncUnit) validFor(b *bin.Binary, jt *analysis.JumpTables, idByName map[string][32]byte) bool {
	for _, d := range u.Deps {
		if idByName[d.Name] != d.ID {
			return false
		}
	}
	return u.Reads.ValidFor(b, jt)
}

// UnitStore is the function-keyed second store level. One store serves
// every binary the process analyses: units are content-addressed, so
// versions of the same program share whatever functions survived the
// diff, and unrelated binaries simply never collide. Beside the units it
// memoises each function's share of the text sweep (analysis.FuncScan),
// keyed by the function's content hash alone: a scan does not depend on
// the mode, the variant or the trust decision.
type UnitStore struct {
	m     *store.Multi[UnitKey, *FuncUnit]
	scans scanMemo
}

// NewUnitStore creates a unit store bounding the number of distinct
// function identities held; <= 0 means unbounded. Each identity keeps
// up to two candidates (the current and the previous version's
// environment for the same function content). The scan memo is bounded
// by the same count.
func NewUnitStore(maxFuncs int) *UnitStore {
	return &UnitStore{
		m:     store.NewMulti[UnitKey, *FuncUnit](maxFuncs, 2),
		scans: scanMemo{store.NewMulti[[32]byte, *analysis.FuncScan](maxFuncs, 1)},
	}
}

// scanMemo is the unit store's analysis.ScanMemo. Its hits and misses
// are not part of Stats, which counts units.
type scanMemo struct {
	m *store.Multi[[32]byte, *analysis.FuncScan]
}

// Scan implements analysis.ScanMemo.
func (s scanMemo) Scan(id [32]byte) *analysis.FuncScan {
	fs, _ := s.m.Get(id, nil)
	return fs
}

// PutScan implements analysis.ScanMemo.
func (s scanMemo) PutScan(id [32]byte, fs *analysis.FuncScan) { s.m.Put(id, fs) }

// Len returns the number of distinct function identities held.
func (s *UnitStore) Len() int {
	if s == nil {
		return 0
	}
	return s.m.Len()
}

// Stats returns the unit store's hit/miss/eviction counters.
func (s *UnitStore) Stats() store.Stats {
	if s == nil {
		return store.Stats{}
	}
	return s.m.Stats()
}

// unitIDVersion tags the unit identity layout; bump it whenever the
// layout changes so stale identities can never validate.
const unitIDVersion = "icfg-unit-v2"

// deltaEnv appends to dst the binary-wide invariants every per-function
// analysis silently depends on beyond its content hash (which covers
// the architecture): position independence, exception use (placement
// consults it), the text section extent (decode windows and
// plausibility checks), the TOC value (the slicer's r2 seed on PPC) and
// whether trusted landing-pad evidence is engaged. The environment is
// folded into every unit ID, so a layout change — text grown, sections
// moved — invalidates all units rather than risking a stale reuse. The
// delta engine targets same-layout version changes; cross-layout diffs
// fall back to cold. The rendering has a fixed layout: the version tag,
// one flag byte, then three 8-byte little-endian words.
func deltaEnv(dst []byte, b *bin.Binary, marks bool) []byte {
	var flags byte
	for i, set := range []bool{b.PIE, b.SharedLib, b.UsesExceptions(), marks} {
		if set {
			flags |= 1 << i
		}
	}
	var tAddr, tEnd uint64
	if text := b.Text(); text != nil {
		tAddr, tEnd = text.Addr, text.End()
	}
	dst = append(append(dst, unitIDVersion...), flags)
	dst = binary.LittleEndian.AppendUint64(dst, tAddr)
	dst = binary.LittleEndian.AppendUint64(dst, tEnd)
	return binary.LittleEndian.AppendUint64(dst, b.TOCValue)
}

// unitID computes a function's identity hash: one sha256 over the
// environment (deltaEnv), the content hash (bin.FuncContentHashes) and
// the catch pads, each pad as 8 little-endian bytes. It builds the
// input in env's spare capacity, so a caller hashing many functions
// gives env room once and env's own bytes are never written.
func unitID(env []byte, content [32]byte, catchPads []uint64) [32]byte {
	buf := append(env[:len(env):cap(env)], content[:]...)
	for _, p := range catchPads {
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	return sha256.Sum256(buf)
}

// callDeps builds a freshly analysed function's dependency index:
// direct call targets resolved to their containing functions, plus the
// owners of recorded read ranges (in-text jump tables land inside a
// function), each stamped with its identity hash at build time.
func callDeps(f *cfg.Func, rec *analysis.Recording, symAt func(uint64) (string, bool), idByName map[string][32]byte) []Dep {
	seen := map[string]bool{}
	add := func(addr uint64) {
		if f.Contains(addr) {
			return
		}
		name, ok := symAt(addr)
		if !ok || seen[name] {
			return
		}
		seen[name] = true
	}
	for _, blk := range f.Blocks {
		if last := blk.Last(); last.Kind == arch.Call {
			if t, ok := last.Target(); ok {
				add(t)
			}
		}
	}
	if rec != nil {
		for _, r := range rec.Reads {
			add(r.Addr)
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	deps := make([]Dep, 0, len(names))
	for _, n := range names {
		deps = append(deps, Dep{Name: n, ID: idByName[n]})
	}
	return deps
}

// assembleUnits is Analyze's unit assembly against a store: each
// function's identity (unitID over its content hash, catch pads and the
// binary-wide environment), then a validated unit from the store or a
// fresh build with the resolver's read set recorded and its dependency
// edges stamped. The full name→ID map exists before any unit is
// validated or built: reuse validation compares dependency edges
// against it, and fresh builds stamp their deps from it. It returns the
// units in address order and the recomputed functions' names, counting
// both in mx.
func assembleUnits(b *bin.Binary, text *bin.Section, syms []bin.Symbol, hashes [][32]byte, pads *unwind.Table,
	resolver *analysis.JumpTables, cfgc AnalysisConfig, units *UnitStore, useMarks bool, mx *Metrics) ([]*FuncUnit, []string) {
	env := deltaEnv(make([]byte, 0, 128), b, useMarks)
	type fent struct {
		sym bin.Symbol
		id  [32]byte
	}
	table := make([]fent, 0, len(syms))
	idByName := make(map[string][32]byte, len(syms))
	for k, sym := range syms {
		if sym.Size == 0 {
			continue
		}
		id := unitID(env, hashes[k], cfg.CatchPads(pads, sym))
		table = append(table, fent{sym, id})
		idByName[sym.Name] = id
	}
	symAt := func(addr uint64) (string, bool) {
		i := sort.Search(len(table), func(i int) bool { return table[i].sym.Addr > addr })
		if i > 0 {
			if s := table[i-1].sym; addr >= s.Addr && addr < s.Addr+s.Size {
				return s.Name, true
			}
		}
		return "", false
	}

	fus := make([]*FuncUnit, 0, len(table))
	var recomputed []string
	for _, fe := range table {
		key := UnitKey{ID: fe.id, Arch: b.Arch, Mode: cfgc.Mode, Variant: cfgc.Variant}
		u, ok := units.m.Get(key, func(c *FuncUnit) bool {
			return c.validFor(b, resolver, idByName)
		})
		if ok {
			mx.FuncsReused++
		} else {
			resolver.StartRecording()
			f := buildFunc(b, text, fe.sym, pads, resolver, cfgc.Variant)
			rec := resolver.StopRecording()
			u = &FuncUnit{Key: key, Name: fe.sym.Name, Fn: f, Reads: rec}
			u.Deps = callDeps(f, rec, symAt, idByName)
			mx.FuncsRecomputed++
			recomputed = append(recomputed, fe.sym.Name)
			units.m.Put(key, u)
		}
		fus = append(fus, u)
	}
	return fus, recomputed
}

// buildFunc builds one function's CFG, failing it when the variant
// disables the tail call heuristic and an indirect jump relied on it.
func buildFunc(b *bin.Binary, text *bin.Section, sym bin.Symbol, pads *unwind.Table, resolver *analysis.JumpTables, v Variant) *cfg.Func {
	f := cfg.BuildFunc(b, text, sym, pads, resolver)
	if v.NoTailCallHeuristic && f.Err == nil {
		for _, ij := range f.IndirectJumps {
			if ij.TailCall {
				f.Err = fmt.Errorf("core: unresolved indirect jump at %#x (tail call heuristic disabled)", ij.Addr)
				break
			}
		}
	}
	return f
}
