package jobs

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"

	"fpmix/internal/search"
)

// cacheMagic heads the shared verdict-cache file.
const cacheMagic = "fpmix-verdicts v1"

// cacheSyncBatch bounds how many appended entries may be awaiting an
// fsync before one is forced.
const cacheSyncBatch = 64

// Cache is the shared cross-job verdict cache: every evaluated or
// proved piece verdict of every job, keyed by (scope, address-set key)
// where the scope is the job's image fingerprint — module image,
// verification identity and step budget. Two jobs over the same image
// therefore share verdicts no matter who submitted them or when, which
// is what makes re-submitting a search cheap: the second job replays
// the first's evaluations as cache hits.
//
// The cache is append-only on disk (one atomic O_APPEND line per
// verdict, fsynced in batches and at Close; a torn final line is
// truncated away on load, so the next append starts a fresh line) and
// fully mirrored in memory, so lookups never touch the disk.
type Cache struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string]search.CachedVerdict // scope + "\x00" + key
	pending int
}

// OpenCache opens (or creates) the verdict cache at path, loading every
// complete entry and truncating a torn final line.
func OpenCache(path string) (*Cache, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &Cache{f: f, entries: make(map[string]search.CachedVerdict)}
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		if header == "" {
			// Fresh file: write the header.
			if _, werr := fmt.Fprintf(f, "%s\n", cacheMagic); werr != nil {
				f.Close()
				return nil, werr
			}
			return c, nil
		}
		f.Close()
		return nil, fmt.Errorf("jobs: %s: torn verdict-cache header %q", path, header)
	}
	if strings.TrimSuffix(header, "\n") != cacheMagic {
		f.Close()
		return nil, fmt.Errorf("jobs: %s is not a verdict cache (header %q)", path, strings.TrimSuffix(header, "\n"))
	}
	good := int64(len(header)) // offset past the last complete line
	for {
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasSuffix(line, "\n") {
			break // EOF or torn final append: truncate it away below
		}
		good += int64(len(line))
		// Split on the single spaces Store writes, not on runs of
		// whitespace: an empty key is an empty hex field.
		fields := strings.Split(strings.TrimSuffix(line, "\n"), " ")
		if len(fields) < 3 || (fields[2] != "pass" && fields[2] != "fail") {
			continue // unknown line shape: tolerate, future fields may appear
		}
		key, err := hex.DecodeString(fields[1])
		if err != nil {
			continue
		}
		v := search.CachedVerdict{Pass: fields[2] == "pass"}
		for _, fl := range fields[3:] {
			if fl == "proved" {
				v.Proved = true
			}
		}
		c.entries[fields[0]+"\x00"+string(key)] = v
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// Len is the number of cached verdicts (across all scopes).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Sync forces pending appends to disk.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked()
}

func (c *Cache) syncLocked() error {
	if c.f == nil || c.pending == 0 {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.pending = 0
	return nil
}

// Close syncs and releases the cache file; the in-memory view keeps
// serving (a closed cache just stops persisting).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	serr := c.syncLocked()
	err := c.f.Close()
	c.f = nil
	if err == nil {
		err = serr
	}
	return err
}

// Scope returns the cache view a search consults: lookups and stores
// bound to one image fingerprint, implementing search.VerdictCache.
func (c *Cache) Scope(scope string) search.VerdictCache {
	return scoped{c: c, scope: scope}
}

type scoped struct {
	c     *Cache
	scope string
}

func (s scoped) Lookup(key string) (search.CachedVerdict, bool) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	v, ok := s.c.entries[s.scope+"\x00"+key]
	return v, ok
}

func (s scoped) Store(key string, v search.CachedVerdict) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	mk := s.scope + "\x00" + key
	if old, ok := s.c.entries[mk]; ok && old == v {
		return // already persisted
	}
	s.c.entries[mk] = v
	if s.c.f == nil {
		return
	}
	verdict := "fail"
	if v.Pass {
		verdict = "pass"
	}
	line := fmt.Sprintf("%s %s %s", s.scope, hex.EncodeToString([]byte(key)), verdict)
	if v.Proved {
		line += " proved"
	}
	if _, err := fmt.Fprintln(s.c.f, line); err != nil {
		return // cache persistence is best-effort; memory stays authoritative
	}
	s.c.pending++
	if s.c.pending >= cacheSyncBatch {
		_ = s.c.syncLocked()
	}
}
