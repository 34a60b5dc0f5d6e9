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

// shardExport generates global samples [lo, hi) in an offset pool and
// returns their IMCS export, the payload SaveShard stores.
func shardExport(t testing.TB, lo, hi int, seed uint64) []byte {
	t.Helper()
	g, part := smallInstance(t)
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), hi-lo); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.ExportRange(&buf, lo, hi); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

	want := shardExport(t, lo, hi, seed)
	if err := c.SaveShard(base, want, lo, hi); err != nil {
		t.Fatal(err)
	}

	dst, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if !c.LoadShard(base, dst, lo, hi) {
		t.Fatal("saved shard not found")
	}
	var got bytes.Buffer
	if err := dst.ExportRange(&got, lo, hi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
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
	if err := c.SaveShard(base, shardExport(t, lo, hi, seed), lo, hi); err != nil {
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
	if err := c.SaveShard(base, shardExport(t, lo, hi, seed), lo, hi); err != nil {
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

// TestSessionAdoptThenGenerate: Grow adopts the cached prefix before
// it runs the fill, so a fill with its own strategy (a shard
// coordinator, say) only produces the tail; the composed pool still
// matches pure generation.
func TestSessionAdoptThenGenerate(t *testing.T) {
	g, part := smallInstance(t)
	const seed = 19
	ctx := context.Background()
	c := openCache(t, t.TempDir(), Options{})

	warmup := newPool(t, g, part, seed)
	if err := c.Begin(g, part, diffusion.IC, seed).Grow(ctx, warmup, 50, nil); err != nil {
		t.Fatal(err)
	}

	sess := c.Begin(g, part, diffusion.IC, seed)
	pool := newPool(t, g, part, seed)
	fill := func(ctx context.Context, pool *ric.Pool, target int) error {
		if pool.NumSamples() != 50 || target != 80 {
			t.Fatalf("fill got %d samples and target %d, want the 50 adopted and 80", pool.NumSamples(), target)
		}
		return pool.EnsureCtx(ctx, target)
	}
	if err := sess.Grow(ctx, pool, 80, fill); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AdoptedSamples != 50 {
		t.Fatalf("adopted %d samples, want 50", st.AdoptedSamples)
	}

	pure := newPool(t, g, part, seed)
	if err := pure.EnsureCtx(ctx, 80); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, pure), saveBytes(t, pool)) {
		t.Fatal("adopt-then-generate diverged from pure generation")
	}
}
