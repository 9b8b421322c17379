package jobs

import (
	"os"
	"path/filepath"
	"testing"

	"fpmix/internal/search"
)

// FuzzOpenCache feeds arbitrary bytes to the verdict-cache loader. Two
// properties: no file content makes OpenCache panic, and a cache it does
// open (a torn tail truncated away) keeps the next stored verdict across
// a reopen. The committed corpus covers piece and final-union key lines,
// a torn final line and a foreign header.
func FuzzOpenCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		path := filepath.Join(t.TempDir(), "verdicts.cache")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(path)
		if err != nil {
			return // a foreign or torn header is rejected, not repaired
		}
		want := search.CachedVerdict{Pass: len(data)%2 == 0, Proved: len(key)%2 == 1}
		c.Scope("fuzz").Store(key, want)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2, err := OpenCache(path)
		if err != nil {
			t.Fatalf("reopening a cache this package wrote: %v", err)
		}
		defer c2.Close()
		if got, ok := c2.Scope("fuzz").Lookup(key); !ok || got != want {
			t.Fatalf("stored %+v, reopened %+v (found %v)", want, got, ok)
		}
	})
}
