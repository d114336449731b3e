// Unit wire codec: the peer warm path's serialisation of FuncUnits.
//
// A cluster node that misses its analysis store asks the owning peer
// for the binary's cached units before recomputing (internal/cluster).
// What travels is exactly the reusable state: the unit's identity, its
// CFG, the dependency index, and the resolver's recorded read set. The
// receiver re-validates every unit against its own copy of the binary
// (FuncUnit.validFor — dependency hashes and read-set replay), so a
// stale or mismatched peer answer degrades to a recompute, never to a
// wrong reuse; the lazily memoised placement inputs are deliberately
// not shipped, because they are derived state the receiver rebuilds on
// first use without affecting emitted bytes.
//
// Error values are the one non-gob-able ingredient: Func.Err and
// IndirectJump.Err are interfaces holding arbitrary concrete types.
// They flatten to their message text on the wire and rehydrate as
// opaque errors — the rewriter only ever inspects them for nil-ness
// and renders their text, so a rehydrated unit patches byte-identically.
package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/cfg"
)

// wireJumpErr records the flattened Err of one IndirectJump by index.
type wireJumpErr struct {
	Index int
	Text  string
}

// wireUnit is FuncUnit's gob shape: memo caches dropped, errors
// flattened.
type wireUnit struct {
	Key      UnitKey
	Name     string
	Fn       *cfg.Func
	FnErr    string
	JumpErrs []wireJumpErr
	Deps     []Dep
	Reads    *analysis.Recording
}

// MarshalUnits encodes units for the peer wire. The units' graphs are
// shared read-only state — encoding copies the top-level Func so the
// error flattening never mutates a unit another request is using.
func MarshalUnits(us []*FuncUnit) ([]byte, error) {
	wus := make([]wireUnit, 0, len(us))
	for _, u := range us {
		if u == nil || u.Fn == nil {
			continue
		}
		w := wireUnit{Key: u.Key, Name: u.Name, Deps: u.Deps, Reads: u.Reads}
		fc := *u.Fn
		if fc.Err != nil {
			w.FnErr = fc.Err.Error()
			fc.Err = nil
		}
		if n := len(fc.IndirectJumps); n > 0 {
			ijs := append([]cfg.IndirectJump(nil), fc.IndirectJumps...)
			for i := range ijs {
				if ijs[i].Err != nil {
					w.JumpErrs = append(w.JumpErrs, wireJumpErr{Index: i, Text: ijs[i].Err.Error()})
					ijs[i].Err = nil
				}
			}
			fc.IndirectJumps = ijs
		}
		w.Fn = &fc
		wus = append(wus, w)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wus); err != nil {
		return nil, fmt.Errorf("core: marshal units: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalUnits decodes a peer's unit payload, rehydrating flattened
// errors and checking each graph's structure (cfg.Func.Check): a
// malformed graph fails the whole payload, so the node recomputes
// instead of patching from it.
func UnmarshalUnits(data []byte) ([]*FuncUnit, error) {
	var wus []wireUnit
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wus); err != nil {
		return nil, fmt.Errorf("core: unmarshal units: %w", err)
	}
	us := make([]*FuncUnit, 0, len(wus))
	for i := range wus {
		w := &wus[i]
		if w.Fn == nil {
			return nil, fmt.Errorf("core: unmarshal units: unit %d (%s) has no graph", i, w.Name)
		}
		if w.FnErr != "" {
			w.Fn.Err = errors.New(w.FnErr)
		}
		for _, je := range w.JumpErrs {
			if je.Index < 0 || je.Index >= len(w.Fn.IndirectJumps) {
				return nil, fmt.Errorf("core: unmarshal units: unit %s jump-error index %d out of range", w.Name, je.Index)
			}
			w.Fn.IndirectJumps[je.Index].Err = errors.New(je.Text)
		}
		if err := w.Fn.Check(); err != nil {
			return nil, fmt.Errorf("core: unmarshal units: unit %s: %w", w.Name, err)
		}
		us = append(us, &FuncUnit{Key: w.Key, Name: w.Name, Fn: w.Fn, Deps: w.Deps, Reads: w.Reads})
	}
	return us, nil
}

// Seed deposits units obtained from a cluster peer into the store,
// attributing them as peer hits in Stats (distinct from disk warms and
// memory hits). The units enter the same validation gauntlet as any
// cached candidate — Analyze re-checks identity, dependency edges, and
// the recorded read set before reuse — so seeding never bypasses the
// delta engine's conservatism. Returns the number seeded.
func (s *UnitStore) Seed(us []*FuncUnit) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, u := range us {
		if u == nil || u.Fn == nil {
			continue
		}
		s.m.Put(u.Key, u)
		n++
	}
	if n > 0 {
		s.m.NotePeer(uint64(n))
	}
	return n
}
