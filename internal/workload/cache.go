package workload

import (
	"sync"
	"sync/atomic"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/store"
)

// The generators are deterministic but not cheap: building and linking
// the 19-benchmark suite dominates the start of every experiment sweep,
// and the parallel Table 3 runner would otherwise regenerate identical
// binaries in every worker. The cache memoises each seeded binary so it
// is generated and compiled once and then shared read-only across cells:
// that sharing is safe because the rewriter clones before mutating and
// the emulator copies section data into its own pages.

// cacheKey identifies one memoised generation request.
type cacheKey struct {
	kind string
	a    arch.Arch
	pie  bool
}

// cacheEntry single-flights one generation: the first caller runs gen,
// concurrent and later callers share the stored result.
type cacheEntry struct {
	once  sync.Once
	progs []*Program
	err   error
}

var (
	progCache   sync.Map // cacheKey -> *cacheEntry
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
)

// CacheStats reports the workload cache's hit/miss counters — the same
// shape internal/store uses, so experiment reports can print both
// caches uniformly. A miss is a generation actually run; concurrent
// callers that share a single-flighted generation count as hits.
func CacheStats() store.Stats {
	return store.Stats{Hits: cacheHits.Load(), Misses: cacheMisses.Load()}
}

// cached memoises gen behind key.
func cached(key cacheKey, gen func() ([]*Program, error)) ([]*Program, error) {
	e, _ := progCache.LoadOrStore(key, &cacheEntry{})
	ent := e.(*cacheEntry)
	generated := false
	ent.once.Do(func() {
		generated = true
		cacheMisses.Add(1)
		ent.progs, ent.err = gen()
	})
	if !generated {
		cacheHits.Add(1)
	}
	return ent.progs, ent.err
}

// cachedOne memoises a single-program generator.
func cachedOne(key cacheKey, gen func() (*Program, error)) (*Program, error) {
	progs, err := cached(key, func() ([]*Program, error) {
		p, err := gen()
		if err != nil {
			return nil, err
		}
		return []*Program{p}, nil
	})
	if err != nil {
		return nil, err
	}
	return progs[0], nil
}

// SPECSuiteCached returns the memoised 19-benchmark suite for one
// architecture/PIE configuration. Callers must treat the programs as
// read-only.
func SPECSuiteCached(a arch.Arch, pie bool) ([]*Program, error) {
	return cached(cacheKey{kind: "spec", a: a, pie: pie}, func() ([]*Program, error) { return SPECSuite(a, pie) })
}

// LibxulCached returns the memoised Firefox libxul.so-like workload.
func LibxulCached(a arch.Arch) (*Program, error) {
	return cachedOne(cacheKey{kind: "libxul", a: a, pie: true}, func() (*Program, error) { return Libxul(a) })
}

// DockerCached returns the memoised Docker-like Go binary.
func DockerCached(a arch.Arch) (*Program, error) {
	return cachedOne(cacheKey{kind: "docker", a: a, pie: true}, func() (*Program, error) { return Docker(a) })
}

// LibcudaCached returns the memoised libcuda.so-like driver library.
func LibcudaCached(a arch.Arch) (*Program, error) {
	return cachedOne(cacheKey{kind: "libcuda", a: a, pie: true}, func() (*Program, error) { return Libcuda(a) })
}
