// Package poolcache is a content-addressed on-disk store of RIC pool
// snapshots shared across solve requests. The key (see Key) pins the
// full pool identity — weighted graph, partition, model, seed — so a
// cached snapshot is always a byte-exact prefix of the sample sequence
// any matching request would generate, and requests that need more
// samples than the cache holds adopt the cached prefix and generate
// only the missing tail ("incremental doubling"). A hit decodes and
// validates the snapshot once, into a ric.Donor, and each Grow folds
// only the samples it adopts. Files are CRC-framed and published
// atomically via internal/atomicio; a byte budget is enforced with LRU
// eviction.
package poolcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/ric"
)

// Cache file layout (little endian), wrapped in an atomicio CRC frame:
//
//	magic    [4]byte  "IMCC"
//	version  uint32   (1)
//	samples  uint64   sample count of the embedded pool
//	pool     ric pool stream (Pool.Save, format v3)
//	crc32    uint32   IEEE checksum of everything before it
//
// The sample count is duplicated out of the pool header so the boot
// scan and the grow-or-skip decision read 16 bytes instead of parsing
// (or checksumming) the whole snapshot; a load drops a file whose
// header count differs from the snapshot's. The pool stream carries its
// own identity (seed, model, weight digest) which ric.ReadDonor
// re-validates on load — the cache key should make a mismatch
// impossible, but a renamed or hand-copied file still fails closed.

var cacheMagic = [4]byte{'I', 'M', 'C', 'C'}

const (
	cacheVersion    = 1
	cacheHeaderSize = 4 + 4 + 8 // magic, version, samples
	fileSuffix      = ".pool"
)

// Options configures Open.
type Options struct {
	// MaxBytes caps the total size of cache files on disk; once
	// exceeded, least-recently-used entries are evicted. Zero or
	// negative means unlimited.
	MaxBytes int64
	// Logf, when non-nil, receives one line per operational event
	// (corrupt file dropped, eviction, save failure).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the cache's counters. The JSON
// tags are the field names the server's /metrics endpoint publishes.
type Stats struct {
	// Entries and Bytes describe the current on-disk population.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits counts sessions that found and loaded a usable snapshot;
	// Misses counts sessions that found none (including snapshots that
	// failed to load — those also count an Error).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Extends counts Grow calls that adopted at least one cached
	// sample instead of generating it; AdoptedSamples totals the
	// samples adopted across them.
	Extends        uint64 `json:"extends"`
	AdoptedSamples uint64 `json:"adoptedSamples"`
	// Saves counts snapshots written (or grown) on disk; Evictions
	// counts entries removed to respect MaxBytes; Errors counts load,
	// save, and scan failures.
	Saves     uint64 `json:"saves"`
	Evictions uint64 `json:"evictions"`
	Errors    uint64 `json:"errors"`
	// ShardSaves/ShardHits/ShardMisses count the shard-range entries the
	// distributed runtime stores and serves (SaveShard/LoadShard); shard
	// saves are also included in Saves.
	ShardSaves  uint64 `json:"shardSaves"`
	ShardHits   uint64 `json:"shardHits"`
	ShardMisses uint64 `json:"shardMisses"`
}

// entry is the in-memory record of one cache file.
type entry struct {
	size    int64
	samples uint64
	seq     uint64 // recency stamp; larger = used more recently
}

// Cache is the shared store. All methods are safe for concurrent use;
// a nil *Cache is a valid no-op cache (Begin returns a no-op session),
// so callers can wire it unconditionally.
type Cache struct {
	dir      string                           //imc:guardedby immutable
	maxBytes int64                            //imc:guardedby immutable
	logf     func(format string, args ...any) //imc:guardedby immutable

	mu      sync.Mutex
	entries map[Key]*entry //imc:guardedby mu
	bytes   int64          //imc:guardedby mu
	seq     uint64         //imc:guardedby mu
	stats   Stats          //imc:guardedby mu — counter fields only
	// saving marks keys with a snapshot write in flight: a concurrent
	// Save of the same key skips instead of racing on the shared
	// temp-file path (the cache is best-effort; the skipped pool will
	// be offered again at its next checkpoint boundary).
	saving map[Key]bool //imc:guardedby mu
}

// Open loads (or initializes) a cache rooted at dir. Existing cache
// files are scanned into the index (read-on-boot): stale temp files are
// removed, files that don't parse as cache entries are ignored, and if
// the population already exceeds the byte budget the oldest files are
// evicted immediately.
func Open(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("poolcache: cache directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("poolcache: create cache dir: %w", err)
	}
	c := &Cache{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		logf:     opts.Logf,
		entries:  make(map[Key]*entry),
		saving:   make(map[Key]bool),
	}
	if err := c.scan(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	victims := c.evictLocked(Key{}, false)
	c.mu.Unlock()
	c.removeFiles(victims)
	return c, nil
}

// scan builds the index from the files already in the cache directory,
// ordered oldest-first by modification time so the boot recency stamps
// approximate the previous process's usage order.
func (c *Cache) scan() error {
	dents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("poolcache: scan cache dir: %w", err)
	}
	type found struct {
		key     Key
		size    int64
		samples uint64
		mod     int64
	}
	files := make([]found, 0, len(dents))
	for _, de := range dents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// A crashed write; the published file (if any) is intact.
			os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		key, ok := parseKey(strings.TrimSuffix(name, fileSuffix))
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(c.dir, name)
		samples, stale, err := readHeader(path)
		if err != nil {
			c.log("poolcache: ignoring %s at boot: %v", name, err)
			c.mu.Lock()
			c.stats.Errors++
			c.mu.Unlock()
			continue
		}
		if stale != nil {
			// An entry of a previous stream format can never load, so
			// indexing it would only spend the byte budget until LRU
			// pushed it out.
			c.log("poolcache: removing %s at boot: %v", name, stale)
			c.mu.Lock()
			c.stats.Errors++
			c.mu.Unlock()
			os.Remove(path)
			continue
		}
		files = append(files, found{key: key, size: info.Size(), samples: samples, mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range files {
		c.seq++
		c.entries[f.key] = &entry{size: f.size, samples: f.samples, seq: c.seq}
		c.bytes += f.size
	}
	return nil
}

// readHeader reads and validates the 16-byte cache header of one file,
// returning the embedded sample count, and checks the magic and version
// of the stream behind it. A bad cache header (a foreign or torn file)
// is err; a good one over a stream this build does not decode, such as
// one written by a previous sampler version, is stale. The CRC frame is
// not verified — that happens on load, when the whole file is read
// anyway.
func readHeader(path string) (samples uint64, stale, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	var hdr [cacheHeaderSize + ric.StreamHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:cacheHeaderSize]); err != nil {
		return 0, nil, fmt.Errorf("short header: %w", err)
	}
	if !bytes.Equal(hdr[:4], cacheMagic[:]) {
		return 0, nil, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != cacheVersion {
		return 0, nil, fmt.Errorf("unsupported cache version %d (want %d)", v, cacheVersion)
	}
	if _, err := io.ReadFull(f, hdr[cacheHeaderSize:]); err != nil {
		return 0, nil, fmt.Errorf("short stream header: %w", err)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), ric.CheckStreamHeader(hdr[cacheHeaderSize:]), nil
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.String()+fileSuffix)
}

func (c *Cache) log(format string, args ...any) {
	if c != nil && c.logf != nil {
		c.logf(format, args...)
	}
}

// Stats returns a snapshot of the cache counters. Safe on nil (all
// zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	return s
}

// Begin opens a cache session for one pool identity; the same (g,
// part) pointers must be shared with the pools the session will grow
// (sample adoption splices masks, which is only sound against the
// identical instance objects). Safe on nil (returns a no-op session).
func (c *Cache) Begin(g *graph.Graph, part *community.Partition, model diffusion.Model, seed uint64) *Session {
	if c == nil {
		return nil
	}
	if model == 0 {
		model = diffusion.IC
	}
	return &Session{c: c, key: KeyFor(g, part, model, seed), g: g, part: part, model: model, seed: seed}
}

// lookup touches k and reports its cached sample count. Counts neither
// hits nor misses — load does, once per session.
func (c *Cache) lookup(k Key) (samples uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return 0, false
	}
	c.seq++
	e.seq = c.seq
	return e.samples, true
}

// drop removes k's entry and file — the response to a corrupt or
// mismatched snapshot. The file unlink happens after the lock is
// released (never block other cache users behind the disk).
func (c *Cache) drop(k Key, why error) {
	c.log("poolcache: dropping %s: %v", k, why)
	c.mu.Lock()
	c.stats.Errors++
	_, ok := c.entries[k]
	if ok {
		c.bytes -= c.entries[k].size
		delete(c.entries, k)
	}
	c.mu.Unlock()
	if ok {
		os.Remove(c.path(k))
	}
}

// evictLocked removes least-recently-used entries from the index until
// the byte budget holds, returning the evicted keys; the caller must
// unlink their files with removeFiles AFTER releasing mu — disk work
// never happens inside the critical section. keep (when keepSet) is
// never evicted: the entry being inserted must survive its own
// insertion even if it alone exceeds the budget (an oversized cache of
// one is better than write churn).
//
//imc:locked mu
func (c *Cache) evictLocked(keep Key, keepSet bool) []Key {
	if c.maxBytes <= 0 {
		return nil
	}
	var victims []Key
	for c.bytes > c.maxBytes {
		var (
			victim   Key
			oldest   uint64
			haveProm bool
		)
		for k, e := range c.entries {
			if keepSet && k == keep {
				continue
			}
			if !haveProm || e.seq < oldest {
				victim, oldest, haveProm = k, e.seq, true
			}
		}
		if !haveProm {
			return victims
		}
		e := c.entries[victim]
		delete(c.entries, victim)
		c.bytes -= e.size
		c.stats.Evictions++
		victims = append(victims, victim)
		c.log("poolcache: evicting %s (%d bytes, %d samples)", victim, e.size, e.samples)
	}
	return victims
}

// removeFiles unlinks evicted cache files. Call without holding mu.
func (c *Cache) removeFiles(victims []Key) {
	for _, k := range victims {
		os.Remove(c.path(k))
	}
}
