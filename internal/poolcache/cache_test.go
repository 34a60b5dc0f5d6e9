package poolcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"imc/internal/atomicio"
	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

func smallInstance(t testing.TB) (*graph.Graph, *community.Partition) {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.4)
	b.AddEdge(1, 2, 0.6)
	b.AddEdge(0, 3, 0.5)
	b.AddEdge(3, 4, 0.7)
	b.AddEdge(4, 5, 0.3)
	b.AddEdge(2, 4, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func newPool(t testing.TB, g *graph.Graph, part *community.Partition, seed uint64) *ric.Pool {
	t.Helper()
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func openCache(t testing.TB, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func saveBytes(t testing.TB, p *ric.Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestKeyIdentity(t *testing.T) {
	g, part := smallInstance(t)
	base := KeyFor(g, part, diffusion.IC, 7)
	if KeyFor(g, part, diffusion.IC, 7) != base {
		t.Fatal("key is not deterministic")
	}
	if KeyFor(g, part, diffusion.IC, 8) == base {
		t.Fatal("seed not in key")
	}
	if KeyFor(g, part, diffusion.LT, 7) == base {
		t.Fatal("model not in key")
	}
	// Same content, rebuilt objects: keys must match (content address,
	// not pointer identity).
	g2, part2 := smallInstance(t)
	if KeyFor(g2, part2, diffusion.IC, 7) != base {
		t.Fatal("key depends on object identity, not content")
	}
	// One perturbed weight changes the key.
	b := graph.NewBuilder(6)
	for _, e := range g.Edges() {
		w := e.Weight
		if e.From == 0 && e.To == 1 {
			w += 0.125
		}
		b.AddEdge(e.From, e.To, w)
	}
	g3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if KeyFor(g3, part, diffusion.IC, 7) == base {
		t.Fatal("weights not in key")
	}
	// A different threshold profile changes the key.
	part3, err := community.New(6, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	part3.SetBoundedThresholds(1)
	part3.SetPopulationBenefits()
	if KeyFor(g, part3, diffusion.IC, 7) == base {
		t.Fatal("partition thresholds not in key")
	}
}

// TestSessionRoundTrip drives the full warm-path contract: a cold
// session's Grow generates and stores back; a second session over the
// same identity hits, adopts the cached samples, and — the determinism
// pin — the pool it grows to 2Θ is byte-identical to one generated
// from scratch, and replaces the snapshot.
func TestSessionRoundTrip(t *testing.T) {
	g, part := smallInstance(t)
	dir := t.TempDir()
	ctx := context.Background()
	const theta, seed = 150, 5

	c := openCache(t, dir, Options{Logf: t.Logf})
	cold := c.Begin(g, part, diffusion.IC, seed)
	p1 := newPool(t, g, part, seed)
	if err := cold.Grow(ctx, p1, theta, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Saves != 1 || st.Entries != 1 {
		t.Fatalf("after cold run: %+v", st)
	}

	// Fresh cache object over the same dir — read-on-boot.
	c2 := openCache(t, dir, Options{Logf: t.Logf})
	if got := c2.Stats().Entries; got != 1 {
		t.Fatalf("boot scan found %d entries, want 1", got)
	}
	warm := c2.Begin(g, part, diffusion.IC, seed)
	if warm.key != cold.key {
		t.Fatal("same identity produced different session keys")
	}
	if cached := warm.Cached(); cached == nil || cached.NumSamples() != theta {
		t.Fatalf("Cached() = %v, want %d-sample pool", cached, theta)
	}
	p2 := newPool(t, g, part, seed)
	if err := warm.Grow(ctx, p2, 2*theta, nil); err != nil {
		t.Fatal(err)
	}
	// The grow stores the grown pool back, replacing the snapshot in
	// place.
	st = c2.Stats()
	if st.Hits != 1 || st.Extends != 1 || st.AdoptedSamples != theta || st.Saves != 1 || st.Entries != 1 {
		t.Fatalf("after warm grow: %+v", st)
	}

	scratch := newPool(t, g, part, seed)
	if err := scratch.EnsureCtx(ctx, 2*theta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, scratch), saveBytes(t, p2)) {
		t.Fatal("cache-adopted pool diverged from scratch generation")
	}
	c3 := openCache(t, dir, Options{})
	again := c3.Begin(g, part, diffusion.IC, seed)
	if cached := again.Cached(); cached == nil || cached.NumSamples() != 2*theta {
		t.Fatalf("reloaded snapshot has %v samples, want %d", cached.NumSamples(), 2*theta)
	}
}

// TestSaveSkipsSmallerPool: a pool no larger than the cached snapshot
// must not overwrite it (a concurrent shorter solve would otherwise
// shrink the cache).
func TestSaveSkipsSmallerPool(t *testing.T) {
	g, part := smallInstance(t)
	c := openCache(t, t.TempDir(), Options{})
	ctx := context.Background()

	s := c.Begin(g, part, diffusion.IC, 3)
	big := newPool(t, g, part, 3)
	if err := s.Grow(ctx, big, 100, nil); err != nil {
		t.Fatal(err)
	}
	small := newPool(t, g, part, 3)
	if err := small.EnsureCtx(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(g, part, diffusion.IC, 3).save(small); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Saves != 1 {
		t.Fatalf("smaller pool overwrote the snapshot: %+v", st)
	}
	s2 := c.Begin(g, part, diffusion.IC, 3)
	if cached := s2.Cached(); cached == nil || cached.NumSamples() != 100 {
		t.Fatal("cached snapshot shrank")
	}
}

func TestEvictionLRU(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	dir := t.TempDir()

	// Learn the size of one snapshot, then budget for about two.
	probe := openCache(t, dir, Options{})
	p := newPool(t, g, part, 1)
	s := probe.Begin(g, part, diffusion.IC, 1)
	if err := s.Grow(ctx, p, 50, nil); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatal("no bytes recorded")
	}
	os.RemoveAll(dir)

	c := openCache(t, dir, Options{MaxBytes: 2*one + one/2, Logf: t.Logf})
	for seed := uint64(1); seed <= 3; seed++ {
		s := c.Begin(g, part, diffusion.IC, seed)
		pool := newPool(t, g, part, seed)
		if err := s.Grow(ctx, pool, 50, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 entries after 1 eviction, got %+v", st)
	}
	// Seed 1 was least recently used; its session must now miss.
	if c.Begin(g, part, diffusion.IC, 1).Cached() != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.Begin(g, part, diffusion.IC, 3).Cached() == nil {
		t.Fatal("most recent entry was evicted")
	}
	// Orphaned files are gone from disk too.
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dents) != 2 {
		t.Fatalf("%d files on disk, want 2", len(dents))
	}
}

// TestEvictionNeverRemovesInsertedKey: a snapshot bigger than the whole
// budget still caches (evicting everything else) — eviction must not
// delete the entry being inserted.
func TestEvictionNeverRemovesInsertedKey(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	c := openCache(t, t.TempDir(), Options{MaxBytes: 1, Logf: t.Logf}) // below any real snapshot

	s := c.Begin(g, part, diffusion.IC, 9)
	pool := newPool(t, g, part, 9)
	if err := s.Grow(ctx, pool, 40, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("oversized insert must survive alone: %+v", st)
	}
	if c.Begin(g, part, diffusion.IC, 9).Cached() == nil {
		t.Fatal("inserted entry missing")
	}
}

func TestBootEvictsOverBudget(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	dir := t.TempDir()

	c := openCache(t, dir, Options{})
	var one int64
	for seed := uint64(1); seed <= 3; seed++ {
		s := c.Begin(g, part, diffusion.IC, seed)
		pool := newPool(t, g, part, seed)
		if err := s.Grow(ctx, pool, 50, nil); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			one = c.Stats().Bytes
		}
	}
	if c.Stats().Entries != 3 {
		t.Fatal("setup failed")
	}
	// Reopen with room for roughly one entry: boot eviction trims to fit.
	c2 := openCache(t, dir, Options{MaxBytes: one + one/2, Logf: t.Logf})
	st := c2.Stats()
	if st.Entries != 1 || st.Bytes > one+one/2 {
		t.Fatalf("boot eviction left %+v", st)
	}
}

func TestCorruptSnapshotDropped(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	dir := t.TempDir()

	c := openCache(t, dir, Options{Logf: t.Logf})
	s := c.Begin(g, part, diffusion.IC, 4)
	pool := newPool(t, g, part, 4)
	if err := s.Grow(ctx, pool, 30, nil); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the pool body; the CRC frame catches it on load.
	path := filepath.Join(dir, s.key.String()+fileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openCache(t, dir, Options{Logf: t.Logf})
	s2 := c2.Begin(g, part, diffusion.IC, 4)
	if s2.Cached() != nil {
		t.Fatal("corrupt snapshot loaded")
	}
	st := c2.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Errors == 0 {
		t.Fatalf("corrupt load should count a miss and an error: %+v", st)
	}
	if st.Entries != 0 {
		t.Fatal("corrupt entry not dropped")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not unlinked")
	}
	// The same session then degrades to generation, and its grow writes
	// a good entry in place of the dropped one.
	p2 := newPool(t, g, part, 4)
	if err := s2.Grow(ctx, p2, 30, nil); err != nil {
		t.Fatal(err) // corrupt cache must degrade to generation, not fail
	}
	if p2.NumSamples() != 30 {
		t.Fatalf("pool has %d samples, want 30", p2.NumSamples())
	}
	if st := c2.Stats(); st.Saves != 1 || st.Entries != 1 {
		t.Fatalf("grow after the drop should store a fresh entry: %+v", st)
	}
}

// TestHeaderCountMismatchDropped: a CRC-valid cache file whose IMCC
// header over-states its sample count is corrupt like any other. The
// index trusts the header count to decide whether a save grows the
// entry, so adopting such a file would block every later save of the
// key; load drops it instead (one error, one miss, file unlinked), and
// the session's next grow writes a good entry.
func TestHeaderCountMismatchDropped(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	dir := t.TempDir()

	c := openCache(t, dir, Options{Logf: t.Logf})
	s := c.Begin(g, part, diffusion.IC, 4)
	pool := newPool(t, g, part, 4)
	if err := s.Grow(ctx, pool, 30, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, s.key.String()+fileSuffix)
	// The embedded pool holds 30 samples; the header claims 1000.
	if err := atomicio.WriteCRCStream(path, func(w io.Writer) error {
		var hdr [cacheHeaderSize]byte
		copy(hdr[:4], cacheMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:8], cacheVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], 1000)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		return pool.Save(w)
	}); err != nil {
		t.Fatal(err)
	}

	c2 := openCache(t, dir, Options{Logf: t.Logf})
	s2 := c2.Begin(g, part, diffusion.IC, 4)
	if s2.Cached() != nil {
		t.Fatal("mis-counted snapshot loaded")
	}
	st := c2.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Errors != 1 {
		t.Fatalf("mis-counted snapshot should count one miss and one error: %+v", st)
	}
	if st.Entries != 0 {
		t.Fatal("mis-counted entry not dropped")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("mis-counted file not unlinked")
	}
	p2 := newPool(t, g, part, 4)
	if err := s2.Grow(ctx, p2, 60, nil); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.AdoptedSamples != 0 || st.Saves != 1 || st.Entries != 1 {
		t.Fatalf("the grow after the drop should adopt nothing and write the 60-sample pool: %+v", st)
	}
	if cached := c2.Begin(g, part, diffusion.IC, 4).Cached(); cached == nil || cached.NumSamples() != 60 {
		t.Fatal("the 60-sample snapshot does not load")
	}
}

// TestOldSamplerEntryNeverAdopted: entries written under the previous
// reverse sampler (pool format v2, key tag v1) are never adopted. The
// boot scan reads the stream version behind each cache header and
// unlinks the file under the instance's previous key, counting an
// error, so it neither is indexed nor spends the byte budget; and a v2
// stream found under the current key is refused by the decoder,
// counted as an error and a miss, and dropped. Either way the session
// regenerates, byte-identical to a cold pool.
func TestOldSamplerEntryNeverAdopted(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	dir := t.TempDir()
	// KeyFor(g, part, IC, 4) as the previous sampler's cache computed it.
	const prevKey = "78bd57f8c5304d3cf7165a7d6210c570d2a98d7d3ad57847076612b94bd2551f"
	key := KeyFor(g, part, diffusion.IC, 4)
	if key.String() == prevKey {
		t.Fatal("the key tag did not change with the sampler")
	}
	old := newPool(t, g, part, 4)
	if err := old.EnsureCtx(ctx, 30); err != nil {
		t.Fatal(err)
	}
	v2 := saveBytes(t, old)
	binary.LittleEndian.PutUint32(v2[4:8], 2)
	writeV2 := func(name string) {
		t.Helper()
		if err := atomicio.WriteCRCStream(filepath.Join(dir, name+fileSuffix), func(w io.Writer) error {
			var hdr [cacheHeaderSize]byte
			copy(hdr[:4], cacheMagic[:])
			binary.LittleEndian.PutUint32(hdr[4:8], cacheVersion)
			binary.LittleEndian.PutUint64(hdr[8:16], 30)
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			_, err := w.Write(v2)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	// At boot the previous key's entry is unlinked, not indexed: it can
	// never be hit, so it must not spend the byte budget.
	writeV2(prevKey)
	c := openCache(t, dir, Options{Logf: t.Logf})
	if _, err := os.Stat(filepath.Join(dir, prevKey+fileSuffix)); !os.IsNotExist(err) {
		t.Fatalf("the previous-key v2 entry survived the boot scan: %v", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Errors != 1 {
		t.Fatalf("a v2 entry at boot should count one error and index nothing: %+v", st)
	}

	// A v2 stream under the current key, put in place of an indexed
	// entry after boot, is refused by the decoder.
	warm := newPool(t, g, part, 4)
	if err := c.Begin(g, part, diffusion.IC, 4).Grow(ctx, warm, 30, nil); err != nil {
		t.Fatal(err)
	}
	writeV2(key.String())
	s := c.Begin(g, part, diffusion.IC, 4)
	p := newPool(t, g, part, 4)
	if err := s.Grow(ctx, p, 60, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.AdoptedSamples != 0 || st.Errors != 2 {
		t.Fatalf("a v2 entry should count one more error and adopt nothing: %+v", st)
	}
	cold := newPool(t, g, part, 4)
	if err := cold.EnsureCtx(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, p), saveBytes(t, cold)) {
		t.Fatal("pool grown past a v2 entry differs from a cold pool")
	}
}

func TestBootIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+".pool"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leftover.tmp"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, dir, Options{Logf: t.Logf})
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("foreign files indexed: %+v", st)
	}
	if st.Errors == 0 {
		t.Fatal("unparseable .pool file should count an error")
	}
	if _, err := os.Stat(filepath.Join(dir, "leftover.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not removed at boot")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("boot scan must not delete unrelated files")
	}
}

// TestNilCache: the nil cache and nil session are fully functional
// no-ops — this is what every call site relies on when caching is off.
func TestNilCache(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	var c *Cache
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	s := c.Begin(g, part, diffusion.IC, 1)
	if s != nil {
		t.Fatal("nil cache must return a nil session")
	}
	if s.Cached() != nil {
		t.Fatal("nil session returned a pool")
	}
	pool := newPool(t, g, part, 1)
	if err := s.Grow(ctx, pool, 25, nil); err != nil {
		t.Fatal(err)
	}
	if pool.NumSamples() != 25 {
		t.Fatalf("nil session Grow generated %d samples, want 25", pool.NumSamples())
	}
}

// TestSessionIsolation: sessions over different identities never see
// each other's snapshots.
func TestSessionIsolation(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	c := openCache(t, t.TempDir(), Options{})

	s1 := c.Begin(g, part, diffusion.IC, 1)
	p1 := newPool(t, g, part, 1)
	if err := s1.Grow(ctx, p1, 40, nil); err != nil {
		t.Fatal(err)
	}
	if c.Begin(g, part, diffusion.IC, 2).Cached() != nil {
		t.Fatal("different seed hit the cache")
	}
	if c.Begin(g, part, diffusion.LT, 1).Cached() != nil {
		t.Fatal("different model hit the cache")
	}
}

// TestGrowStoresBack pins the store-back inside Grow: each successful
// fill writes the grown pool back, so growing cold to Θ and then 2Θ
// leaves one 2Θ entry with no explicit save; a cancelled fill stores
// nothing; a nil session runs the fill alone; and a custom fill is the
// one that runs.
func TestGrowStoresBack(t *testing.T) {
	g, part := smallInstance(t)
	ctx := context.Background()
	const theta, seed = 40, 6

	t.Run("doubling", func(t *testing.T) {
		dir := t.TempDir()
		c := openCache(t, dir, Options{Logf: t.Logf})
		s := c.Begin(g, part, diffusion.IC, seed)
		pool := newPool(t, g, part, seed)
		for _, target := range []int{theta, 2 * theta} {
			if err := s.Grow(ctx, pool, target, nil); err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); st.Saves != 2 || st.Entries != 1 || st.Errors != 0 {
			t.Fatalf("two grows should save twice into one entry: %+v", st)
		}
		reopened := openCache(t, dir, Options{})
		if cached := reopened.Begin(g, part, diffusion.IC, seed).Cached(); cached == nil || cached.NumSamples() != 2*theta {
			t.Fatalf("the stored entry is not the %d-sample pool", 2*theta)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		c := openCache(t, t.TempDir(), Options{Logf: t.Logf})
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		pool := newPool(t, g, part, seed)
		if err := c.Begin(g, part, diffusion.IC, seed).Grow(cctx, pool, theta, nil); err == nil {
			t.Fatal("a grow under a cancelled ctx succeeded")
		}
		if st := c.Stats(); st.Saves != 0 || st.Entries != 0 {
			t.Fatalf("a cancelled fill stored a pool: %+v", st)
		}
	})

	// fill counts its calls and generates like the default.
	calls := 0
	fill := func(ctx context.Context, pool *ric.Pool, target int) error {
		calls++
		return pool.EnsureCtx(ctx, target)
	}

	t.Run("nil-session", func(t *testing.T) {
		calls = 0
		var s *Session
		pool := newPool(t, g, part, seed)
		if err := s.Grow(ctx, pool, theta, fill); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || pool.NumSamples() != theta {
			t.Fatalf("nil session: fill ran %d times, pool has %d samples", calls, pool.NumSamples())
		}
	})

	t.Run("custom-fill", func(t *testing.T) {
		calls = 0
		c := openCache(t, t.TempDir(), Options{Logf: t.Logf})
		pool := newPool(t, g, part, seed)
		if err := c.Begin(g, part, diffusion.IC, seed).Grow(ctx, pool, theta, fill); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || pool.NumSamples() != theta {
			t.Fatalf("custom fill ran %d times, pool has %d samples", calls, pool.NumSamples())
		}
		if st := c.Stats(); st.Saves != 1 {
			t.Fatalf("the custom fill's pool was not stored: %+v", st)
		}
		// A fill that grows the pool and then fails: its pool is not
		// stored, however many samples it holds.
		failing := func(ctx context.Context, pool *ric.Pool, target int) error {
			if err := pool.EnsureCtx(ctx, target); err != nil {
				return err
			}
			return io.ErrUnexpectedEOF
		}
		if err := c.Begin(g, part, diffusion.IC, seed).Grow(ctx, newPool(t, g, part, seed), 2*theta, failing); err != io.ErrUnexpectedEOF {
			t.Fatalf("a failing fill returned %v", err)
		}
		if st := c.Stats(); st.Saves != 1 {
			t.Fatalf("a failed fill stored a pool: %+v", st)
		}
	})
}

// TestColdSolveSavesOncePerPass pins the cache's side of an IMCAF solve
// whose Grow is the session's: the loop grows once per solver pass,
// straight past the rounds it skips, so a cold solve stores one
// snapshot per solved round, the last one the size the solve ended at,
// and a warm rerun adopts it and gives the same answer.
func TestColdSolveSavesOncePerPass(t *testing.T) {
	g, part := smallInstance(t)
	const seed = 8
	c := openCache(t, t.TempDir(), Options{Logf: t.Logf})
	solve := func() core.Solution {
		t.Helper()
		s := c.Begin(g, part, diffusion.IC, seed)
		sol, err := core.SolveCtx(context.Background(), g, part, maxr.UBG{}, core.Options{
			K: 1, Eps: 0.3, Delta: 0.3, Seed: seed, MaxSamples: 1 << 13,
			Grow: func(ctx context.Context, pool *ric.Pool, target int) error {
				return s.Grow(ctx, pool, target, nil)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	cold := solve()
	passes, skipped := 0, 0
	for _, r := range cold.Rounds {
		if r.Skipped {
			skipped++
		} else {
			passes++
		}
	}
	if skipped == 0 {
		t.Fatalf("no round was skipped, so the test shows nothing: %+v", cold.Rounds)
	}
	st := c.Stats()
	if st.Saves != uint64(passes) || st.Errors != 0 {
		t.Fatalf("cold solve with %d solver passes over %d rounds saved %d times: %+v", passes, len(cold.Rounds), st.Saves, st)
	}
	if cached := c.Begin(g, part, diffusion.IC, seed).Cached(); cached == nil || cached.NumSamples() != cold.Samples {
		t.Fatalf("the stored entry is not the %d-sample pool the solve ended at", cold.Samples)
	}
	warm := solve()
	if c.Stats().AdoptedSamples != uint64(cold.Samples) || warm.CHat != cold.CHat || !slices.Equal(warm.Seeds, cold.Seeds) {
		t.Fatalf("warm rerun adopted %d samples for %+v, cold %+v", c.Stats().AdoptedSamples, warm, cold)
	}
}
