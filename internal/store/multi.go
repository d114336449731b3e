package store

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Multi is the function-keyed second store level behind the delta
// engine: a concurrent LRU map from a content-addressed key to a small
// set of candidate values. Unlike Store, a key does not fully determine
// its value — a function's analysis also depends on bytes outside the
// function (jump-table data, boundary hints), so one content hash can
// legitimately map to different analyses across binary versions. Get
// therefore takes a validation callback and returns the first candidate
// that passes; Put prepends a new candidate, keeping at most maxPerKey.
type Multi[K comparable, V any] struct {
	maxKeys   int
	maxPerKey int

	mu      sync.Mutex
	entries map[K]*multiEntry[K, V]
	lru     *list.List // of *multiEntry; front is most recently used

	hits, misses, evictions atomic.Uint64
}

// multiEntry is one key's candidates and its place in the LRU order.
// Put replaces cands with a new slice and never writes into one already
// published, so a slice read under the lock stays valid after it is
// released.
type multiEntry[K comparable, V any] struct {
	key   K
	cands []V
	el    *list.Element
}

// NewMulti creates a Multi bounding the key count and candidates per
// key. maxKeys <= 0 means unbounded; maxPerKey <= 0 defaults to 2 (the
// common case: the current and the previous binary version).
func NewMulti[K comparable, V any](maxKeys, maxPerKey int) *Multi[K, V] {
	if maxPerKey <= 0 {
		maxPerKey = 2
	}
	return &Multi[K, V]{
		maxKeys:   maxKeys,
		maxPerKey: maxPerKey,
		entries:   map[K]*multiEntry[K, V]{},
		lru:       list.New(),
	}
}

// Get returns the first candidate for key accepted by valid (nil valid
// accepts any). The callback runs without the store lock held — it may
// do real work (byte comparisons, boundary queries) — over the
// candidate slice as it was when looked up, which concurrent Puts and
// evictions never modify.
func (m *Multi[K, V]) Get(key K, valid func(V) bool) (V, bool) {
	var cands []V
	m.mu.Lock()
	if e := m.entries[key]; e != nil {
		cands = e.cands
		m.lru.MoveToFront(e.el)
	}
	m.mu.Unlock()
	for _, v := range cands {
		if valid == nil || valid(v) {
			m.hits.Add(1)
			return v, true
		}
	}
	var zero V
	m.misses.Add(1)
	return zero, false
}

// Put adds a candidate for key, most-recent first, trimming the
// candidate list to maxPerKey and evicting least-recently-used keys
// beyond maxKeys. The candidate list is rebuilt, not edited in place
// (see multiEntry).
func (m *Multi[K, V]) Put(key K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e == nil {
		e = &multiEntry[K, V]{key: key}
		e.el = m.lru.PushFront(e)
		m.entries[key] = e
	} else {
		m.lru.MoveToFront(e.el)
	}
	n := min(len(e.cands)+1, m.maxPerKey)
	cands := make([]V, n)
	cands[0] = v
	copy(cands[1:], e.cands)
	e.cands = cands
	if m.maxKeys > 0 {
		for m.lru.Len() > m.maxKeys {
			old := m.lru.Remove(m.lru.Back()).(*multiEntry[K, V])
			delete(m.entries, old.key)
			m.evictions.Add(1)
		}
	}
}

// Len returns the number of keys currently held.
func (m *Multi[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (m *Multi[K, V]) Stats() Stats {
	return Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
	}
}
