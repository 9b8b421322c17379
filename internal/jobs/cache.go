package jobs

import (
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"

	"fpmix/internal/applog"
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
// On disk the cache is an applog line log, fsynced every cacheSyncBatch
// appends and at Close; in memory it is mirrored in full, so lookups
// never touch the disk. Persistence is best-effort: after a failed write
// or fsync the cache keeps serving and may stop persisting.
type Cache struct {
	mu      sync.Mutex
	log     *applog.Log
	entries map[string]search.CachedVerdict // scope + "\x00" + key
}

// OpenCache opens (or creates) the verdict cache at path, loading every
// complete entry and truncating a torn final line.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{entries: make(map[string]search.CachedVerdict)}
	var err error
	if c.log, err = applog.Open(path, cacheMagic, nil, c.load); err != nil {
		return nil, err
	}
	return c, nil
}

// load parses one cache line as Store writes it.
func (c *Cache) load(line string) applog.Action {
	// Split on the single spaces Store writes, not on runs of
	// whitespace: an empty key is an empty hex field.
	fields := strings.Split(line, " ")
	if len(fields) < 3 || (fields[2] != "pass" && fields[2] != "fail") {
		return applog.Skip // unknown line shape: tolerate, future fields may appear
	}
	key, err := hex.DecodeString(fields[1])
	if err != nil {
		return applog.Skip
	}
	v := search.CachedVerdict{Pass: fields[2] == "pass", Proved: slices.Contains(fields[3:], "proved")}
	c.entries[fields[0]+"\x00"+string(key)] = v
	return applog.Keep
}

// Len is the number of cached verdicts (across all scopes).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Sync forces pending appends to disk.
func (c *Cache) Sync() error { return c.log.Sync() }

// Close syncs and releases the cache file; the in-memory view keeps
// serving (a closed cache just stops persisting).
func (c *Cache) Close() error { return c.log.Close() }

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
	verdict := "fail"
	if v.Pass {
		verdict = "pass"
	}
	line := fmt.Sprintf("%s %s %s", s.scope, hex.EncodeToString([]byte(key)), verdict)
	if v.Proved {
		line += " proved"
	}
	// Best-effort: memory stays authoritative; a failed fsync sticks.
	if n, err := s.c.log.Append(line); err == nil && n >= cacheSyncBatch {
		_ = s.c.log.Sync()
	}
}
