package poolcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/ric"
)

// shardPool generates global samples [lo, hi) in an offset pool.
func shardPool(t testing.TB, lo, hi int, seed uint64) *ric.Pool {
	t.Helper()
	g, part := smallInstance(t)
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), hi-lo); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyForShardDistinguishesRanges(t *testing.T) {
	g, part := smallInstance(t)
	base := KeyFor(g, part, diffusion.IC, 7)
	a := KeyForShard(base, 0, 100)
	if KeyForShard(base, 0, 100) != a {
		t.Fatal("shard key is not deterministic")
	}
	if KeyForShard(base, 0, 101) == a || KeyForShard(base, 1, 100) == a {
		t.Fatal("range bounds not in shard key")
	}
	other := KeyFor(g, part, diffusion.IC, 8)
	if KeyForShard(other, 0, 100) == a {
		t.Fatal("instance key not in shard key")
	}
	if a == base {
		t.Fatal("shard key aliases the instance key")
	}
}

// TestShardSaveLoadRoundTrip: a saved range loads back into a fresh
// shard pool, and the loaded pool serves the same exported bytes.
func TestShardSaveLoadRoundTrip(t *testing.T) {
	g, part := smallInstance(t)
	const lo, hi, seed = 30, 70, 11
	base := KeyFor(g, part, diffusion.IC, seed)
	c := openCache(t, t.TempDir(), Options{})

	src := shardPool(t, lo, hi, seed)
	if err := c.SaveShard(base, src, lo, hi); err != nil {
		t.Fatal(err)
	}

	dst, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if !c.LoadShard(base, dst, lo, hi) {
		t.Fatal("saved shard not found")
	}
	var want, got bytes.Buffer
	if err := src.ExportRange(&want, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := dst.ExportRange(&got, lo, hi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("loaded shard exports different bytes")
	}

	st := c.Stats()
	if st.ShardSaves != 1 || st.ShardHits != 1 {
		t.Fatalf("stats = %+v, want 1 shard save and 1 shard hit", st)
	}

	// A different range is a miss, not an error.
	miss, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: hi})
	if err != nil {
		t.Fatal(err)
	}
	if c.LoadShard(base, miss, hi, hi+10) {
		t.Fatal("uncached range found")
	}
	if st := c.Stats(); st.ShardMisses != 1 {
		t.Fatalf("stats = %+v, want 1 shard miss", st)
	}
}

// TestShardEntriesSurviveReboot: shard entries use the common cache
// container, so a reopened cache indexes them and serves them again —
// the restart half of the worker's exactly-once contract.
func TestShardEntriesSurviveReboot(t *testing.T) {
	g, part := smallInstance(t)
	const lo, hi, seed = 0, 40, 13
	base := KeyFor(g, part, diffusion.IC, seed)
	dir := t.TempDir()

	c := openCache(t, dir, Options{})
	if err := c.SaveShard(base, shardPool(t, lo, hi, seed), lo, hi); err != nil {
		t.Fatal(err)
	}

	re := openCache(t, dir, Options{})
	if st := re.Stats(); st.Entries != 1 {
		t.Fatalf("rebooted cache has %d entries, want 1", st.Entries)
	}
	dst, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if !re.LoadShard(base, dst, lo, hi) {
		t.Fatal("rebooted cache: saved shard not found")
	}
	if dst.NumSamples() != hi-lo {
		t.Fatalf("loaded %d samples, want %d", dst.NumSamples(), hi-lo)
	}
}

// TestShardLoadDropsCorruptEntry: a flipped byte fails the CRC frame;
// the entry is dropped and the load degrades to a miss so the worker
// regenerates instead of serving garbage.
func TestShardLoadDropsCorruptEntry(t *testing.T) {
	g, part := smallInstance(t)
	const lo, hi, seed = 10, 30, 17
	base := KeyFor(g, part, diffusion.IC, seed)
	dir := t.TempDir()
	c := openCache(t, dir, Options{})
	if err := c.SaveShard(base, shardPool(t, lo, hi, seed), lo, hi); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, KeyForShard(base, lo, hi).String()+fileSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	dst, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if c.LoadShard(base, dst, lo, hi) {
		t.Fatal("corrupt shard found")
	}
	if st := c.Stats(); st.Entries != 0 || st.Errors == 0 {
		t.Fatalf("corrupt entry not dropped: %+v", st)
	}
	if dst.NumSamples() != 0 {
		t.Fatalf("corrupt load left %d samples in the pool", dst.NumSamples())
	}
}

// TestSessionAdoptThenGenerate: Adopt alone splices the cached prefix
// without generating, so a caller can hand the tail to its own grow
// strategy; the composed pool still matches pure generation.
func TestSessionAdoptThenGenerate(t *testing.T) {
	g, part := smallInstance(t)
	const seed = 19
	c := openCache(t, t.TempDir(), Options{})

	warmup := newPool(t, g, part, seed)
	if err := warmup.EnsureCtx(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(g, part, diffusion.IC, seed).Save(warmup); err != nil {
		t.Fatal(err)
	}

	sess := c.Begin(g, part, diffusion.IC, seed)
	pool := newPool(t, g, part, seed)
	if adopted := sess.Adopt(pool, 80); adopted != 50 {
		t.Fatalf("adopted %d samples, want 50", adopted)
	}
	if pool.NumSamples() != 50 {
		t.Fatalf("Adopt generated: pool has %d samples", pool.NumSamples())
	}
	if err := pool.EnsureCtx(context.Background(), 80); err != nil {
		t.Fatal(err)
	}

	pure := newPool(t, g, part, seed)
	if err := pure.EnsureCtx(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, pure), saveBytes(t, pool)) {
		t.Fatal("adopt-then-generate diverged from pure generation")
	}
}
