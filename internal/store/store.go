// Package store provides the content-addressed artifact store behind
// the rewrite service's warm path. Artifacts are keyed by what produced
// them — for rewrite analyses, the binary's content hash × the analysis
// options of the request's wire encoding — so identical inputs share one
// cached result regardless of which client submitted them.
//
// The store is an in-memory LRU with single-flight population:
// concurrent GetOrCreate calls for one key run the builder exactly once
// and share its result, the idiom internal/workload's generation cache
// established. Optional on-disk persistence (Config.Dir plus a codec)
// spills successfully built artifacts to files named by key, so a
// restarted process warms from disk instead of rebuilding. Each file is
// the encoded artifact followed by its sha256, checked before Decode: a
// damaged file is rebuilt, never decoded.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Stats is the counter shape every cache in the system reports: the
// analysis and result stores here, and internal/workload's generation
// cache. Hits include waiters that shared a single-flighted build;
// artifacts reloaded from disk count as DiskHits instead, so a restart
// that serves warm-from-disk is distinguishable from true memory hits.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DiskHits counts artifacts decoded from the persistence directory
	// on a memory miss — disk warms, not memory hits.
	DiskHits uint64
	// PersistFailures counts artifacts that could not be spilled to disk.
	// The in-memory copy stays authoritative, so a persist failure does
	// not fail the request — but a store that silently stops persisting
	// serves every restart cold, so the failures must be countable.
	PersistFailures uint64
}

// String renders the counters as a stable one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk-hits=%d misses=%d evictions=%d persist-failures=%d",
		s.Hits, s.DiskHits, s.Misses, s.Evictions, s.PersistFailures)
}

// Hash returns the content address of a byte string: a hex sha256,
// suitable for Key fields and persistence file names.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Config configures one store.
type Config[K comparable, V any] struct {
	// MaxEntries bounds the in-memory entry count; 0 means unbounded.
	// Eviction is LRU and never removes an entry still being built.
	MaxEntries int
	// Dir enables on-disk persistence when non-empty: built artifacts
	// are encoded into Dir and decoded back on a memory miss. KeyPath,
	// Encode, and Decode must be set when Dir is.
	Dir     string
	KeyPath func(K) string
	Encode  func(V) ([]byte, error)
	Decode  func([]byte) (V, error)
}

// DefaultMaxArtifactBytes caps the size of a persisted artifact the
// store will read back from Dir. Real analysis artifacts for the
// largest workloads are tens of megabytes; 1GiB is far above any sane
// artifact while still refusing a runaway or malicious file. An
// oversized file cannot be a sane artifact — it is a corrupted or
// hostile write into the persistence directory — so it takes the
// corrupt-artifact path: deleted, and the artifact rebuilt, instead of
// being slurped into memory whole before Decode can object.
const DefaultMaxArtifactBytes = 1 << 30

// digestLen is the length of the trailer every persisted file ends
// with: the sha256 of the encoded artifact before it.
const digestLen = sha256.Size

// entry is one keyed slot. ready closes when the value (or error) is
// final; val/err must not be read before that.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
	done  bool // guarded by Store.mu; true once ready is closed
	elem  *list.Element
}

// Store is a content-addressed artifact cache safe for concurrent use.
type Store[K comparable, V any] struct {
	cfg Config[K, V]
	// maxArtifactBytes is DefaultMaxArtifactBytes; tests lower it.
	maxArtifactBytes int64

	mu      sync.Mutex
	entries map[K]*entry[V]
	lru     *list.List // of K; front is most recently used

	hits, misses, evictions, diskHits, persistFailures atomic.Uint64
}

// New creates a store. It panics if Dir is set without a complete codec
// (a configuration bug, not a runtime condition).
func New[K comparable, V any](cfg Config[K, V]) *Store[K, V] {
	if cfg.Dir != "" && (cfg.KeyPath == nil || cfg.Encode == nil || cfg.Decode == nil) {
		panic("store: Dir requires KeyPath, Encode, and Decode")
	}
	return &Store[K, V]{cfg: cfg, maxArtifactBytes: DefaultMaxArtifactBytes, entries: map[K]*entry[V]{}, lru: list.New()}
}

// GetOrCreate returns the artifact for key, building it with build on a
// miss. Exactly one concurrent caller per key runs build; the others
// block and share the outcome. The hit result reports whether the value
// came from the cache (memory or disk) rather than from this call's
// build. A failed build is not cached: its error goes to every waiter,
// and the next GetOrCreate retries.
func (s *Store[K, V]) GetOrCreate(key K, build func() (V, error)) (V, bool, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		<-e.ready
		s.hits.Add(1)
		return e.val, true, e.err
	}
	e := &entry[V]{ready: make(chan struct{})}
	e.elem = s.lru.PushFront(key)
	s.entries[key] = e
	s.mu.Unlock()

	fromDisk := false
	v, err := s.loadDisk(key)
	if err == nil {
		fromDisk = true
	} else {
		v, err = build()
	}
	e.val, e.err = v, err
	close(e.ready)

	s.mu.Lock()
	e.done = true
	if err != nil {
		// Do not cache failures; let later calls retry. A Put may have
		// replaced this entry while the build ran, in which case the
		// replacement — not this failed build — owns the slot.
		s.lru.Remove(e.elem)
		if cur, ok := s.entries[key]; ok && cur == e {
			delete(s.entries, key)
		}
	} else {
		s.evictLocked()
	}
	s.mu.Unlock()

	if err == nil {
		if fromDisk {
			s.diskHits.Add(1)
			return v, true, nil
		}
		if perr := s.saveDisk(key, v); perr != nil {
			s.persistFailures.Add(1)
		}
	}
	s.misses.Add(1)
	return v, false, err
}

// Put inserts or replaces the artifact for key with an already-built
// value, persisting it when the store has a directory. It is the write
// path for mutable artifacts — the batch job store re-Puts a job record
// after every item completion so a restarted daemon resumes from the
// latest persisted state — whereas GetOrCreate only ever populates a
// key once. Readers that were already waiting on an in-flight build for
// the same key still receive that build's result; subsequent reads see
// the Put value. The persist error is reported (and counted) but the
// in-memory copy stays authoritative, exactly as with GetOrCreate.
func (s *Store[K, V]) Put(key K, v V) error {
	e := &entry[V]{ready: make(chan struct{}), val: v, done: true}
	close(e.ready)
	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		// Drop the old entry's LRU element; an in-flight builder's
		// completion path re-checks entry identity before deleting.
		s.lru.Remove(old.elem)
	}
	e.elem = s.lru.PushFront(key)
	s.entries[key] = e
	s.evictLocked()
	s.mu.Unlock()
	if err := s.saveDisk(key, v); err != nil {
		s.persistFailures.Add(1)
		return err
	}
	return nil
}

// Get returns the artifact for key if present and built, without
// populating.
func (s *Store[K, V]) Get(key K) (V, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	<-e.ready
	if e.err != nil {
		var zero V
		return zero, false
	}
	s.hits.Add(1)
	return e.val, true
}

// evictLocked drops least-recently-used completed entries until the
// store fits MaxEntries. Entries still building are skipped: their
// builder will re-check on completion. Evicted artifacts stay on disk
// as a warm-restart source.
func (s *Store[K, V]) evictLocked() {
	if s.cfg.MaxEntries <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.lru.Len() > s.cfg.MaxEntries; {
		prev := el.Prev()
		key := el.Value.(K)
		if e := s.entries[key]; e != nil && e.done {
			s.lru.Remove(el)
			delete(s.entries, key)
			s.evictions.Add(1)
		}
		el = prev
	}
}

// loadDisk attempts to decode a persisted artifact. A file that exists
// but does not hold an intact artifact is corrupt — a torn write, a
// disk error, a flipped bit, or a format change — and is deleted so the
// artifact rebuilds from scratch and re-persists cleanly, instead of
// failing this and every future request for the key. The digest
// trailer is checked before Decode, so a damaged file that still
// decodes is never served. Size is validated before the read: an
// artifact over DefaultMaxArtifactBytes is treated exactly like one
// that fails Decode, without first allocating its full length.
func (s *Store[K, V]) loadDisk(key K) (V, error) {
	var zero V
	if s.cfg.Dir == "" {
		return zero, os.ErrNotExist
	}
	path := filepath.Join(s.cfg.Dir, s.cfg.KeyPath(key))
	fi, err := os.Stat(path)
	if err != nil {
		return zero, err
	}
	corrupt := func(why error) (V, error) {
		os.Remove(path)
		return zero, fmt.Errorf("store: corrupt artifact %v (deleted for rebuild): %w", key, why)
	}
	limit := s.maxArtifactBytes + digestLen
	if fi.Size() > limit {
		return corrupt(fmt.Errorf("%d bytes exceeds cap %d", fi.Size()-digestLen, s.maxArtifactBytes))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, err
	}
	if int64(len(data)) > limit {
		// The file grew between Stat and read — still over the cap.
		return corrupt(fmt.Errorf("%d bytes exceeds cap %d", len(data)-digestLen, s.maxArtifactBytes))
	}
	if len(data) < digestLen {
		return corrupt(fmt.Errorf("%d bytes is shorter than the digest trailer", len(data)))
	}
	body, sum := data[:len(data)-digestLen], data[len(data)-digestLen:]
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return corrupt(fmt.Errorf("digest mismatch"))
	}
	v, err := s.cfg.Decode(body)
	if err != nil {
		return corrupt(err)
	}
	return v, nil
}

// saveDisk persists an artifact: the encoded bytes, then their sha256
// (loadDisk checks it). The memory copy stays authoritative — callers
// must not fail the request on error — but the error is reported so
// failed persists count in Stats instead of vanishing: a half-written
// .tmp left by a failed rename used to be the only trace of a dying
// disk.
func (s *Store[K, V]) saveDisk(key K, v V) error {
	if s.cfg.Dir == "" {
		return nil
	}
	data, err := s.cfg.Encode(v)
	if err != nil {
		return fmt.Errorf("store: encode %v: %w", key, err)
	}
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("store: persist dir: %w", err)
	}
	path := filepath.Join(s.cfg.Dir, s.cfg.KeyPath(key))
	tmp := path + ".tmp"
	sum := sha256.Sum256(data)
	if err := writeFile(tmp, data, sum[:]); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: persist %v: %w", key, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: persist %v: %w", key, err)
	}
	return nil
}

// writeFile creates (or truncates) name and writes the parts to it in
// order, without joining them first.
func writeFile(name string, parts ...[]byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Len returns the number of in-memory entries (including in-flight).
func (s *Store[K, V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (s *Store[K, V]) Stats() Stats {
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Evictions:       s.evictions.Load(),
		DiskHits:        s.diskHits.Load(),
		PersistFailures: s.persistFailures.Load(),
	}
}
