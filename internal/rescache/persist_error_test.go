package rescache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A kill (or full disk) mid-write leaves a truncated file. Loading it
// must fail cleanly and leave the in-memory cache exactly as it was —
// Load validates the whole document before committing anything.
func TestLoadTruncatedFileLeavesCacheIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.cache")
	full := New()
	for key, e := range sampleEntries() {
		full.Put(key, e)
	}
	if err := full.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c := New()
	c.Put(k("warm"), sampleEntry())
	if err := c.LoadFile(path); err == nil {
		t.Fatal("loading a truncated file succeeded")
	}
	if c.Len() != 1 {
		t.Fatalf("failed load changed the cache: %d entries, want 1", c.Len())
	}
	if _, ok := c.Get(k("warm")); !ok {
		t.Fatal("failed load evicted pre-existing entry")
	}
}

// SaveFile against an unwritable destination must return the error (the
// CLI warns instead of silently losing the campaign's oracle work) and
// must not leave a temp file behind.
func TestSaveFileUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	// A path whose parent is a regular file fails for every uid (a
	// read-only directory would not stop root, which CI may run as).
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New()
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	path := filepath.Join(blocker, "results.cache")
	if err := c.SaveFile(path); err == nil {
		t.Fatal("SaveFile into non-directory succeeded")
	}

	if os.Getuid() != 0 {
		ro := filepath.Join(dir, "ro")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(filepath.Join(ro, "results.cache")); err == nil {
			t.Fatal("SaveFile into read-only dir succeeded")
		}
		ents, err := os.ReadDir(ro)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".rescache-") {
				t.Fatalf("temp file %s left behind", e.Name())
			}
		}
	}
}
