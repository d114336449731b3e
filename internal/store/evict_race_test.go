package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func stringCodec() (func(string) string, func(string) ([]byte, error), func([]byte) (string, error)) {
	keyPath := func(k string) string { return k + ".art" }
	enc := func(v string) ([]byte, error) { return []byte(v), nil }
	dec := func(data []byte) (string, error) {
		if !strings.HasPrefix(string(data), "val:") {
			return "", fmt.Errorf("corrupt artifact %q", data)
		}
		return string(data), nil
	}
	return keyPath, enc, dec
}

// TestEvictDiskRace hammers the eviction/single-flight seam under
// -race: a tiny persisted LRU, many goroutines mixing GetOrCreate and
// plain Get over a key space several times the store's capacity, so evictions constantly race in-flight loads,
// builds, and persists.
//
// Every GetOrCreate must return the key's correct value (loaded from
// disk or rebuilt — never an error, never another key's bytes), and at
// quiescence every in-memory entry must have a decodable artifact on
// disk, with no .tmp debris.
func TestEvictDiskRace(t *testing.T) {
	dir := t.TempDir()
	keyPath, enc, dec := stringCodec()
	s := New(Config[string, string]{
		MaxEntries: 4,
		Dir:        dir,
		KeyPath:    keyPath,
		Encode:     enc,
		Decode:     dec,
	})

	const (
		workers = 16
		keys    = 24
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("k%02d", (w*7+i)%keys)
				want := "val:" + k
				if i%2 == 0 {
					v, _, err := s.GetOrCreate(k, func() (string, error) { return want, nil })
					if err != nil {
						t.Errorf("GetOrCreate(%s): %v", k, err)
						return
					}
					if v != want {
						t.Errorf("GetOrCreate(%s) = %q, want %q", k, v, want)
						return
					}
				} else if v, ok := s.Get(k); ok && v != want {
					t.Errorf("Get(%s) = %q, want %q", k, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiescent invariant: every artifact decodes, and every live entry
	// has one. Get reads memory only, so it finds exactly the live
	// entries.
	onDisk := map[string]bool{}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Errorf("persistence debris left behind: %s", f.Name())
			continue
		}
		k := strings.TrimSuffix(f.Name(), ".art")
		onDisk[k] = true
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", f.Name(), err)
		}
		if _, err := dec(data); err != nil {
			t.Errorf("artifact %s does not decode: %v", f.Name(), err)
		}
	}

	inMem := map[string]bool{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		if _, ok := s.Get(k); ok {
			inMem[k] = true
		}
	}
	for k := range inMem {
		if !onDisk[k] {
			t.Errorf("live entry %s has no persisted artifact", k)
		}
	}
	if n := s.Len(); n > 4 {
		t.Errorf("store holds %d entries, want <= 4", n)
	}
}
