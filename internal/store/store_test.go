package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func byteConfig(max int, dir string) Config[string, []byte] {
	cfg := Config[string, []byte]{MaxEntries: max}
	if dir != "" {
		cfg.Dir = dir
		cfg.KeyPath = func(k string) string { return k }
		cfg.Encode = func(v []byte) ([]byte, error) { return v, nil }
		cfg.Decode = func(d []byte) ([]byte, error) { return d, nil }
	}
	return cfg
}

func TestHitMissCounters(t *testing.T) {
	s := New(byteConfig(0, ""))
	build := func() ([]byte, error) { return []byte("v"), nil }
	if _, hit, err := s.GetOrCreate("a", build); err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	if _, hit, err := s.GetOrCreate("a", build); err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %s", st)
	}
}

func TestSingleFlight(t *testing.T) {
	s := New(byteConfig(0, ""))
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.GetOrCreate("k", func() ([]byte, error) {
				builds.Add(1)
				return []byte("once"), nil
			})
			if err != nil || string(v) != "once" {
				t.Errorf("got %q err %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times", n)
	}
}

func TestErrorNotCached(t *testing.T) {
	s := New(byteConfig(0, ""))
	boom := errors.New("boom")
	if _, _, err := s.GetOrCreate("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed build cached (%d entries)", s.Len())
	}
	v, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(byteConfig(2, ""))
	mk := func(k string) { s.GetOrCreate(k, func() ([]byte, error) { return []byte(k), nil }) }
	mk("a")
	mk("b")
	mk("a") // refresh a; b is now LRU
	mk("c") // evicts b
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := New(byteConfig(0, dir))
	if _, hit, err := s1.GetOrCreate("k", func() ([]byte, error) { return []byte("payload"), nil }); err != nil || hit {
		t.Fatalf("build: hit=%v err=%v", hit, err)
	}

	// A fresh store over the same directory must warm from disk.
	s2 := New(byteConfig(0, dir))
	v, hit, err := s2.GetOrCreate("k", func() ([]byte, error) {
		return nil, errors.New("must not rebuild")
	})
	if err != nil || !hit || string(v) != "payload" {
		t.Fatalf("disk load: v=%q hit=%v err=%v", v, hit, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disk stats = %s", st)
	}
}

func TestOversizedArtifactRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := byteConfig(0, dir)
	// Plant an oversized file where the artifact would persist, as a
	// torn multi-write or a hostile tenant of the directory would.
	if err := os.WriteFile(filepath.Join(dir, "k"), sealed(make([]byte, 65)), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	s.maxArtifactBytes = 64
	v, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("rebuilt"), nil })
	if err != nil || hit || string(v) != "rebuilt" {
		t.Fatalf("oversized artifact not rebuilt: v=%q hit=%v err=%v", v, hit, err)
	}
	// The corrupt-artifact path re-persists the rebuilt value; the file
	// on disk must now be the sane one, not the oversized original.
	data, err := os.ReadFile(filepath.Join(dir, "k"))
	if err != nil || !bytes.Equal(data, sealed([]byte("rebuilt"))) {
		t.Fatalf("oversized file not replaced: data=%q err=%v", data, err)
	}

	// At exactly the cap, the artifact loads normally.
	at := sealed(make([]byte, 64))
	if err := os.WriteFile(filepath.Join(dir, "cap"), at, 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err = New(cfg).GetOrCreate("cap", func() ([]byte, error) { return nil, errors.New("must not rebuild") })
	if err != nil || !hit || len(v) != 64 {
		t.Fatalf("at-cap artifact rejected: len=%d hit=%v err=%v", len(v), hit, err)
	}
}

func TestTruncatedArtifactRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := byteConfig(0, dir)
	// A decoder with a real format: 8-byte length prefix. Truncation —
	// the torn-write case — fails Decode and must take the
	// delete-and-rebuild path.
	cfg.Encode = func(v []byte) ([]byte, error) {
		out := make([]byte, 8+len(v))
		out[0] = byte(len(v))
		copy(out[8:], v)
		return out, nil
	}
	cfg.Decode = func(d []byte) ([]byte, error) {
		if len(d) < 8 || int(d[0]) != len(d)-8 {
			return nil, errors.New("truncated")
		}
		return d[8:], nil
	}
	if err := os.WriteFile(filepath.Join(dir, "k"), []byte{9, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	v, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("rebuilt"), nil })
	if err != nil || hit || string(v) != "rebuilt" {
		t.Fatalf("truncated artifact not rebuilt: v=%q hit=%v err=%v", v, hit, err)
	}
}

// sealed is payload as saveDisk persists it: the bytes, then their
// sha256.
func sealed(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// TestDiskDigestMismatchRebuilds: a persisted file whose bytes no
// longer match their digest trailer — a flipped payload bit, a flipped
// trailer bit, or a file shorter than the trailer — is deleted and
// rebuilt, although the identity codec would decode any of them.
func TestDiskDigestMismatchRebuilds(t *testing.T) {
	payload := []byte("persisted payload")
	flip := func(at int) []byte {
		d := sealed(payload)
		d[at] ^= 0x10
		return d
	}
	for name, data := range map[string][]byte{
		"payload bit": flip(3),
		"trailer bit": flip(len(payload) + 5),
		"short":       []byte("tiny"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "k")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(byteConfig(0, dir))
			v, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("rebuilt"), nil })
			if err != nil || hit || string(v) != "rebuilt" {
				t.Fatalf("damaged file served: v=%q hit=%v err=%v", v, hit, err)
			}
			if st := s.Stats(); st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %s, want one miss and no disk hit", st)
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, sealed([]byte("rebuilt"))) {
				t.Fatalf("damaged file not replaced by the rebuilt artifact: %q, %v", got, err)
			}
		})
	}
	// The intact file loads without a rebuild.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "k"), sealed(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err := New(byteConfig(0, dir)).GetOrCreate("k", func() ([]byte, error) { return nil, errors.New("must not rebuild") })
	if err != nil || !hit || !bytes.Equal(v, payload) {
		t.Fatalf("intact file: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestPersistFailureCountedNotFatal(t *testing.T) {
	// Dir is an existing regular file, so MkdirAll fails on every
	// persist. The request must still be served from memory, and the
	// failure must show up in Stats instead of vanishing.
	dir := t.TempDir()
	notADir := filepath.Join(dir, "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(byteConfig(0, notADir))
	v, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("payload"), nil })
	if err != nil || hit || string(v) != "payload" {
		t.Fatalf("build under failing persistence: v=%q hit=%v err=%v", v, hit, err)
	}
	if st := s.Stats(); st.PersistFailures != 1 {
		t.Fatalf("persist failures = %d, want 1 (stats = %s)", st.PersistFailures, st)
	}
	// The memory copy stays authoritative.
	if _, hit, err := s.GetOrCreate("k", func() ([]byte, error) { return nil, errors.New("must not rebuild") }); err != nil || !hit {
		t.Fatalf("memory copy lost after persist failure: hit=%v err=%v", hit, err)
	}
}

func TestPersistRenameFailureCleansTmp(t *testing.T) {
	// The final rename fails because the destination path is occupied by
	// a directory. The half-written .tmp file must be removed — a
	// leaked .tmp used to be the only trace of a failed persist.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "k"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := New(byteConfig(0, dir))
	if _, _, err := s.GetOrCreate("k", func() ([]byte, error) { return []byte("payload"), nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PersistFailures != 1 {
		t.Fatalf("persist failures = %d, want 1", st.PersistFailures)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file not cleaned up: stat err = %v", err)
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("x")) != Hash([]byte("x")) {
		t.Fatal("hash not deterministic")
	}
	if Hash([]byte("x")) == Hash([]byte("y")) {
		t.Fatal("hash collision on trivial input")
	}
	if len(Hash(nil)) != 64 {
		t.Fatal("hash not hex sha256")
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	s := New(byteConfig(4, ""))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				k := fmt.Sprintf("k%d", (g+i)%6)
				v, _, err := s.GetOrCreate(k, func() ([]byte, error) { return []byte(k), nil })
				if err != nil || string(v) != k {
					t.Errorf("key %s: v=%q err=%v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 4 {
		t.Fatalf("len %d exceeds max", s.Len())
	}
}
