package poolcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"imc/internal/atomicio"
	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/ric"
)

// Session is one request's view of the cache for a single pool
// identity. It lazily decodes the cached snapshot (at most once) into a
// ric.Donor; each Grow adopts from the donor before filling the rest
// and writes the grown pool back. A nil *Session is valid and degrades
// to the fill alone — callers wire the cache unconditionally and never
// branch.
//
// Sessions are not safe for concurrent use; create one per request.
// Different sessions over the same key are independent (each loads its
// own donor), so concurrent requests never share mutable pool state.
type Session struct {
	c     *Cache               // immutable
	key   Key                  // immutable
	g     *graph.Graph         // immutable
	part  *community.Partition // immutable
	model diffusion.Model      // immutable
	seed  uint64               // immutable

	once   sync.Once
	donor  *ric.Donor // written once inside once.Do(load), read after
	cached *ric.Pool  // the donor folded into a pool by the first Cached call
}

// load decodes the cached snapshot (if any) into a donor, counting
// one hit or miss per session. A snapshot that fails to read or
// validate is dropped from the cache and counts an error and a miss —
// the request then simply generates everything, as if cold.
func (s *Session) load() {
	samples, ok := s.c.lookup(s.key)
	if !ok || samples == 0 {
		s.c.mu.Lock()
		s.c.stats.Misses++
		s.c.mu.Unlock()
		return
	}
	donor, err := s.readSnapshot()
	if err != nil {
		s.c.drop(s.key, err)
		s.c.mu.Lock()
		s.c.stats.Misses++
		s.c.mu.Unlock()
		return
	}
	s.donor = donor
	s.c.mu.Lock()
	s.c.stats.Hits++
	s.c.mu.Unlock()
}

// readSnapshot reads, CRC-checks, and decodes the cache file into a
// donor over the session's instance. ric.ReadDonor re-checks the
// identity header (seed, model, weight digest) — redundant with the
// content address, but it means a hand-renamed file fails closed. The
// cache header's sample count must match the snapshot's: the index
// trusts it to decide whether a save grows the entry, so a header that
// over-states the count would block every later save of the key.
func (s *Session) readSnapshot() (*ric.Donor, error) {
	body, err := atomicio.ReadCRCFile(s.c.path(s.key))
	if err != nil {
		return nil, err
	}
	if len(body) < cacheHeaderSize {
		return nil, fmt.Errorf("poolcache: %d bytes, shorter than the %d-byte header", len(body), cacheHeaderSize)
	}
	if !bytes.Equal(body[:4], cacheMagic[:]) {
		return nil, fmt.Errorf("poolcache: bad magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != cacheVersion {
		return nil, fmt.Errorf("poolcache: unsupported cache version %d (want %d)", v, cacheVersion)
	}
	donor, err := ric.ReadDonor(s.g, s.part, ric.PoolOptions{Model: s.model, Seed: s.seed}, bytes.NewReader(body[cacheHeaderSize:]))
	if err != nil {
		return nil, err
	}
	if n := binary.LittleEndian.Uint64(body[8:16]); n != uint64(donor.NumSamples()) {
		return nil, fmt.Errorf("poolcache: header records %d samples but the snapshot holds %d", n, donor.NumSamples())
	}
	return donor, nil
}

// Cached returns the cache's snapshot for this identity as a pool, or
// nil on a miss. The first call folds the donor into a fresh pool;
// Grow never needs it. Read-only — callers evaluate against it
// (ĉ_R of a seed set, say) but never mutate or grow it. Safe on nil
// (always a miss).
func (s *Session) Cached() *ric.Pool {
	if s == nil {
		return nil
	}
	s.once.Do(s.load)
	if s.donor == nil {
		return nil
	}
	if s.cached == nil {
		pool, err := ric.NewPool(s.g, s.part, ric.PoolOptions{Model: s.model, Seed: s.seed})
		if err == nil {
			_, err = s.donor.ExtendTo(pool, s.donor.NumSamples())
		}
		if err != nil {
			s.c.log("poolcache: session %s cannot fold its snapshot: %v", s.key, err)
			return nil
		}
		s.cached = pool
	}
	return s.cached
}

// adopt splices cached samples into pool up to target without
// generating anything, and reports how many were adopted. Safe on nil
// (adopts nothing).
func (s *Session) adopt(pool *ric.Pool, target int) int {
	if s == nil {
		return 0
	}
	s.once.Do(s.load)
	if s.donor == nil || target <= pool.NumSamples() {
		return 0
	}
	adopted, err := s.donor.ExtendTo(pool, target)
	if err != nil {
		// An identity mismatch here means the session is being used
		// with a pool it was not begun for — a caller bug, not a bad
		// cache file. The snapshot stays; this session just stops
		// adopting and generates everything.
		s.c.log("poolcache: session %s cannot adopt: %v", s.key, err)
		s.c.mu.Lock()
		s.c.stats.Errors++
		s.c.mu.Unlock()
		s.donor = nil
		return 0
	}
	if adopted > 0 {
		s.c.mu.Lock()
		s.c.stats.Extends++
		s.c.stats.AdoptedSamples += uint64(adopted)
		s.c.mu.Unlock()
	}
	return adopted
}

// Grow brings pool up to at least target samples: it adopts cached
// samples first, runs fill for the missing tail, and once fill has
// succeeded stores the grown pool back to the cache. A nil fill means
// pool.EnsureCtx; a shard coordinator passes its GrowFunc. Because
// sample i is always drawn from PRNG stream i, the result is
// byte-identical to fill alone — Grow changes where samples come from,
// never what they are. The store-back is best-effort: a failure goes
// to the cache's Logf and Stats().Errors, never to the caller, and a
// failed or cancelled fill stores nothing. Safe on nil (fill alone).
//
//imc:longrun
func (s *Session) Grow(ctx context.Context, pool *ric.Pool, target int, fill func(context.Context, *ric.Pool, int) error) error {
	s.adopt(pool, target)
	var err error
	if fill != nil {
		err = fill(ctx, pool, target)
	} else {
		err = pool.EnsureCtx(ctx, target)
	}
	if err != nil {
		return err
	}
	if err := s.save(pool); err != nil {
		s.c.log("%v", err)
	}
	return nil
}

// save writes pool's samples back to the cache when they extend past
// the cached snapshot (a pool no larger than what is stored is only
// touched for recency; a concurrent save of the same key makes this
// one a no-op). The write is atomic and CRC-framed, and the byte
// budget is enforced afterwards — evicting other entries, never this
// one. Errors are counted and returned for logging but leave the
// cache consistent. Safe on nil (no-op).
func (s *Session) save(pool *ric.Pool) error {
	if s == nil || pool.NumSamples() == 0 {
		return nil
	}
	n := uint64(pool.NumSamples())
	// Claim the key's write slot (and bail if the cached snapshot is
	// already at least this large) in one critical section, then do all
	// disk work unlocked — no other cache user ever waits on this write.
	s.c.mu.Lock()
	if e, ok := s.c.entries[s.key]; ok && e.samples >= n {
		s.c.seq++
		e.seq = s.c.seq
		s.c.mu.Unlock()
		return nil
	}
	if s.c.saving[s.key] {
		s.c.mu.Unlock()
		return nil
	}
	s.c.saving[s.key] = true
	s.c.mu.Unlock()
	defer func() {
		s.c.mu.Lock()
		delete(s.c.saving, s.key)
		s.c.mu.Unlock()
	}()
	path := s.c.path(s.key)
	err := atomicio.WriteCRCStream(path, func(w io.Writer) error {
		var hdr [cacheHeaderSize]byte
		copy(hdr[:4], cacheMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:8], cacheVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], n)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		return pool.Save(w)
	})
	if err != nil {
		s.c.mu.Lock()
		s.c.stats.Errors++
		s.c.mu.Unlock()
		return fmt.Errorf("poolcache: save %s: %w", s.key, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		s.c.mu.Lock()
		s.c.stats.Errors++
		s.c.mu.Unlock()
		return fmt.Errorf("poolcache: stat saved %s: %w", s.key, err)
	}
	s.c.mu.Lock()
	if old, ok := s.c.entries[s.key]; ok {
		s.c.bytes -= old.size
	}
	s.c.seq++
	s.c.entries[s.key] = &entry{size: info.Size(), samples: n, seq: s.c.seq}
	s.c.bytes += info.Size()
	s.c.stats.Saves++
	victims := s.c.evictLocked(s.key, true)
	s.c.mu.Unlock()
	s.c.removeFiles(victims)
	return nil
}
