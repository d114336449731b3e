// Package storage is the rewrite service's analysis cache layer: the
// content-addressed analysis store and the function-unit store the
// delta engine shares across analyses, bundled with the key vocabulary
// of every cache level (Keys; the service keeps its result cache of
// wire records itself). It is the seam the cluster's federated unit
// store plugs into — a peer that wants another node's cached analysis
// state talks to this layer (CachedUnits / SeedUnits) and never touches
// scheduling or transport.
package storage

import (
	"icfgpatch/internal/core"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// AnalysisKey addresses one cached analysis: the content hash of the
// serialised binary (which covers the arch) plus the analysis rows of
// the request's wire encoding (wire.AnalysisQuery).
type AnalysisKey struct {
	Hash string
	Opts string
}

// Keys builds one request's two cache keys from a single encoding of
// its options. The result key is a hash of a versioned string of the
// content address, the request's wire encoding and the profile's
// content hash (a nil profile hashes to "", so degraded guided requests
// share the unguided entry). The analysis key keeps only the analysis
// rows, so requests that differ only in their instrumentation share one
// analysis. Options the wire cannot express are refused, so neither key
// ever renders them.
func Keys(hash string, o core.Options) (string, AnalysisKey, error) {
	prof := o.Profile
	o.Profile = nil
	v, err := wire.EncodeOptions(o)
	if err != nil {
		return "", AnalysisKey{}, err
	}
	result := store.Hash([]byte("opts1\n" + hash + "\n" + v.Encode() + "\n" + prof.Hash()))
	return result, AnalysisKey{Hash: hash, Opts: wire.AnalysisQuery(v)}, nil
}

// Config sizes the store bundle. Zero values select the documented
// defaults.
type Config struct {
	// AnalysisEntries bounds the analysis store (default: 32 entries).
	AnalysisEntries int
	// FuncEntries bounds the function-unit store (default: 4096 function
	// identities; -1 disables it).
	FuncEntries int
}

// Stores is the service's two-level analysis cache bundle.
type Stores struct {
	// Analyses single-flights whole-binary analyses by content address.
	Analyses *store.Store[AnalysisKey, *core.Analysis]
	// Units is the delta engine's function-keyed cache; nil when
	// disabled.
	Units *core.UnitStore
}

// New builds the bundle with the service's defaults applied.
func New(cfg Config) *Stores {
	if cfg.AnalysisEntries <= 0 {
		cfg.AnalysisEntries = 32
	}
	if cfg.FuncEntries == 0 {
		cfg.FuncEntries = 4096
	}
	st := &Stores{
		Analyses: store.New(store.Config[AnalysisKey, *core.Analysis]{MaxEntries: cfg.AnalysisEntries}),
	}
	if cfg.FuncEntries > 0 {
		st.Units = core.NewUnitStore(cfg.FuncEntries)
	}
	return st
}

// CachedUnits returns the function units of an already-completed
// analysis for key, or nil when this node has none. It is the owner
// side of the cluster's peer warm path: a side-effect-free read (no hit
// accounting, no LRU promotion, no single-flight join) so serving a
// peer never distorts the local cache's behaviour.
func (st *Stores) CachedUnits(key AnalysisKey) []*core.FuncUnit {
	if st == nil || st.Analyses == nil {
		return nil
	}
	an, ok := st.Analyses.Peek(key)
	if !ok || an == nil {
		return nil
	}
	return an.FuncUnits
}

// SeedUnits deposits peer-fetched units into the unit store (the
// receiver side of the warm path), returning the number seeded. The
// units still face Analyze's full validation before any reuse.
func (st *Stores) SeedUnits(us []*core.FuncUnit) int {
	if st == nil || st.Units == nil {
		return 0
	}
	return st.Units.Seed(us)
}
