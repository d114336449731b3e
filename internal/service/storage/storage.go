// Package storage is the rewrite service's cache layer: the
// content-addressed analysis store, the function-unit store the delta
// engine shares across analyses, and the optional request-level result
// cache, bundled with their key and fingerprint vocabulary. It is the
// seam the cluster's federated unit store plugs into — a peer that
// wants another node's cached analysis state talks to this layer
// (CachedUnits / SeedUnits) and never touches scheduling or transport.
package storage

import (
	"bytes"
	"encoding/gob"

	"icfgpatch/internal/core"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// AnalysisKey addresses one cached analysis: the content hash of the
// serialised binary (which covers the arch) plus the analysis rows of
// the request's wire encoding (wire.EncodeAnalysis).
type AnalysisKey struct {
	Hash string
	Opts string
}

// AnalysisKeyFor builds the analysis key of one request. Requests that
// differ only in their instrumentation share it, and so one analysis.
func AnalysisKeyFor(hash string, o core.Options) (AnalysisKey, error) {
	o.Profile = nil
	v, err := wire.EncodeAnalysis(o)
	if err != nil {
		return AnalysisKey{}, err
	}
	return AnalysisKey{Hash: hash, Opts: v.Encode()}, nil
}

// CachedResult is the result cache's artifact (gob-encoded on disk).
type CachedResult struct {
	Image   []byte
	Stats   core.Stats
	Metrics core.Metrics
}

// Config sizes the store bundle. Zero values select the documented
// defaults.
type Config struct {
	// AnalysisEntries bounds the analysis store (default: 32 entries).
	AnalysisEntries int
	// FuncEntries bounds the function-unit store (default: 4096 function
	// identities; -1 disables it).
	FuncEntries int
	// ResultEntries bounds the request-level result cache; 0 disables it
	// (analyses are still cached).
	ResultEntries int
	// Dir enables on-disk persistence of the result cache.
	Dir string
}

// Stores is the service's two-level cache bundle.
type Stores struct {
	// Analyses single-flights whole-binary analyses by content address.
	Analyses *store.Store[AnalysisKey, *core.Analysis]
	// Results serves byte-identical repeat requests; nil when disabled.
	Results *store.Store[string, CachedResult]
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
	if cfg.ResultEntries > 0 {
		st.Results = store.New(store.Config[string, CachedResult]{
			MaxEntries: cfg.ResultEntries,
			Dir:        cfg.Dir,
			KeyPath:    func(k string) string { return k + ".res" },
			Encode:     encodeResult,
			Decode:     decodeResult,
		})
	}
	return st
}

func encodeResult(v CachedResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeResult(data []byte) (CachedResult, error) {
	var v CachedResult
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

// Fingerprint is the result cache's key: a hash of a versioned string
// of the content address, the request's wire encoding and the profile's
// content hash (a nil profile hashes to "", so degraded guided requests
// share the unguided entry). Options the wire cannot express are
// refused, so it never renders them.
func Fingerprint(hash string, o core.Options) (string, error) {
	prof := o.Profile
	o.Profile = nil
	v, err := wire.EncodeOptions(o)
	if err != nil {
		return "", err
	}
	return store.Hash([]byte("opts1\n" + hash + "\n" + v.Encode() + "\n" + prof.Hash())), nil
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
