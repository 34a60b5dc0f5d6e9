package poolcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"imc/internal/atomicio"
	"imc/internal/ric"
)

// Shard entries: the distributed runtime's workers persist each
// generated sample range [lo, hi) as an IMCS export (ric.ExportRange)
// under a key derived from the instance's content address and the
// range. The container is the same CRC-framed cache file layout —
// magic, version, sample count, payload stream — so the boot scan,
// LRU eviction, and byte budget treat shard entries exactly like full
// snapshots; only the embedded stream differs (IMCS range vs IMCP
// prefix). A worker that restarts mid-job finds its finished ranges by
// key and serves them without regenerating — the exactly-once side of
// the shard protocol's at-least-once dispatch.

// KeyForShard derives the content address of one shard range from the
// instance key (KeyFor) and the global sample range [lo, hi). Equal
// keys guarantee byte-identical exports: the instance key pins the
// sample sequence, the range pins the slice.
func KeyForShard(base Key, lo, hi int) Key {
	h := sha256.New()
	io.WriteString(h, "imc poolcache shard v1\n")
	h.Write(base[:])
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(lo))
	binary.LittleEndian.PutUint64(buf[8:], uint64(hi))
	h.Write(buf[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// SaveShard stores payload, the IMCS export (ric.ExportRange) of the
// global sample range [lo, hi), as a cache entry under
// KeyForShard(base, lo, hi). Re-saving an existing range only touches its
// recency (same key ⇒ byte-identical payload, nothing to rewrite);
// a concurrent save of the same range makes this one a no-op. The
// write is atomic and CRC-framed, and the byte budget is enforced
// afterwards — evicting other entries, never this one. Safe on nil
// (no-op).
func (c *Cache) SaveShard(base Key, payload []byte, lo, hi int) error {
	if c == nil {
		return nil
	}
	key := KeyForShard(base, lo, hi)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.seq++
		e.seq = c.seq
		c.mu.Unlock()
		return nil
	}
	if c.saving[key] {
		c.mu.Unlock()
		return nil
	}
	c.saving[key] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.saving, key)
		c.mu.Unlock()
	}()
	path := c.path(key)
	err := atomicio.WriteCRCStream(path, func(w io.Writer) error {
		var hdr [cacheHeaderSize]byte
		copy(hdr[:4], cacheMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:8], cacheVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(hi-lo))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.mu.Unlock()
		return fmt.Errorf("poolcache: save shard %s: %w", key, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.mu.Unlock()
		return fmt.Errorf("poolcache: stat saved shard %s: %w", key, err)
	}
	c.mu.Lock()
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.size
	}
	c.seq++
	c.entries[key] = &entry{size: info.Size(), samples: uint64(hi - lo), seq: c.seq}
	c.bytes += info.Size()
	c.stats.Saves++
	c.stats.ShardSaves++
	victims := c.evictLocked(key, true)
	c.mu.Unlock()
	c.removeFiles(victims)
	return nil
}

// LoadShard splices the cached shard range [lo, hi) for base into
// pool, whose next global sample index must equal lo (ImportRange's
// contiguity contract). Returns false when the range is not cached —
// the caller generates it instead. A cached file that fails the CRC,
// header, range, or IMCS validation is dropped, counts an error, and
// reports false with pool untouched (ImportRange folds nothing in
// unless the whole declared range is [lo, hi) and decodes), so the
// caller can generate into the same pool: a corrupt shard degrades to
// regeneration, never to a wrong pool. Safe on nil (always a miss).
func (c *Cache) LoadShard(base Key, pool *ric.Pool, lo, hi int) bool {
	if c == nil {
		return false
	}
	key := KeyForShard(base, lo, hi)
	if _, ok := c.lookup(key); !ok {
		c.mu.Lock()
		c.stats.ShardMisses++
		c.mu.Unlock()
		return false
	}
	body, err := atomicio.ReadCRCFile(c.path(key))
	if err == nil && (len(body) < cacheHeaderSize || !bytes.Equal(body[:4], cacheMagic[:])) {
		err = fmt.Errorf("poolcache: shard entry header malformed")
	}
	if err == nil {
		if v := binary.LittleEndian.Uint32(body[4:8]); v != cacheVersion {
			err = fmt.Errorf("poolcache: unsupported cache version %d (want %d)", v, cacheVersion)
		}
	}
	if err == nil {
		err = pool.ImportRange(bytes.NewReader(body[cacheHeaderSize:]), hi)
	}
	if err != nil {
		c.drop(key, err)
		c.mu.Lock()
		c.stats.ShardMisses++
		c.mu.Unlock()
		return false
	}
	c.mu.Lock()
	c.stats.ShardHits++
	c.mu.Unlock()
	return true
}
