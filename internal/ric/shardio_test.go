package ric

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// buildShard generates global samples [lo, hi) in an offset pool — the
// worker side of the distributed runtime.
func buildShard(t testing.TB, lo, hi int, seed uint64) *Pool {
	t.Helper()
	g, part := smallInstance(t)
	p, err := NewPool(g, part, PoolOptions{Seed: seed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), hi-lo); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOffsetPoolMatchesFullPoolSlice is the shard determinism pin:
// an offset pool generating global samples [lo, hi) must hold exactly
// the [lo, hi) slice of a full pool's sequence, because local sample j
// is drawn from PRNG stream offset+j.
func TestOffsetPoolMatchesFullPoolSlice(t *testing.T) {
	const theta, seed = 120, 17
	g, part := smallInstance(t)
	full := buildPool(t, g, part, theta, seed)
	fullCovers := full.SampleCovers()

	for _, rng := range [][2]int{{0, 40}, {40, 90}, {90, theta}, {37, 38}} {
		lo, hi := rng[0], rng[1]
		shard := buildShard(t, lo, hi, seed)
		if shard.NumSamples() != hi-lo {
			t.Fatalf("[%d,%d): shard has %d samples", lo, hi, shard.NumSamples())
		}
		shardCovers := shard.SampleCovers()
		for j := 0; j < hi-lo; j++ {
			want, got := full.Sample(lo+j), shard.Sample(j)
			if want != got {
				t.Fatalf("[%d,%d): sample %d differs: full %+v shard %+v", lo, hi, lo+j, want, got)
			}
			wlo, whi := fullCovers.Start[lo+j], fullCovers.Start[lo+j+1]
			glo, ghi := shardCovers.Start[j], shardCovers.Start[j+1]
			if whi-wlo != ghi-glo {
				t.Fatalf("[%d,%d): sample %d cover count differs: %d vs %d", lo, hi, lo+j, whi-wlo, ghi-glo)
			}
			for k := 0; k < whi-wlo; k++ {
				if fullCovers.Nodes[wlo+k] != shardCovers.Nodes[glo+k] || !bytes.Equal(maskBytes(fullCovers.Mask(wlo+k)), maskBytes(shardCovers.Mask(glo+k))) {
					t.Fatalf("[%d,%d): sample %d cover %d differs", lo, hi, lo+j, k)
				}
			}
		}
	}
}

func maskBytes(m Mask) []byte {
	out := make([]byte, 0, len(m)*8)
	for _, w := range m {
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(w>>s))
		}
	}
	return out
}

// TestSpliceShardsMatchesFullGeneration is the worker-count
// independence pin at the pool layer: exporting disjoint ranges from
// N ∈ {1, 2, 4} offset pools and splicing them in order into one
// offset-0 pool yields Save bytes identical to single-process
// generation, regardless of N.
func TestSpliceShardsMatchesFullGeneration(t *testing.T) {
	const theta, seed = 160, 23
	g, part := smallInstance(t)
	full := buildPool(t, g, part, theta, seed)
	var want bytes.Buffer
	if err := full.Save(&want); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 4} {
		spliced, err := NewPool(g, part, PoolOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < n; w++ {
			lo := w * theta / n
			hi := (w + 1) * theta / n
			shard := buildShard(t, lo, hi, seed)
			var buf bytes.Buffer
			if err := shard.ExportRange(&buf, lo, hi); err != nil {
				t.Fatalf("N=%d worker %d: ExportRange: %v", n, w, err)
			}
			if err := spliced.ImportRange(&buf, hi); err != nil {
				t.Fatalf("N=%d worker %d: ImportRange: %v", n, w, err)
			}
		}
		var got bytes.Buffer
		if err := spliced.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("N=%d: spliced pool serializes differently from single-process generation", n)
		}
	}
}

// TestImportRangeRejectsGapsAndOverlap: ranges must splice contiguously
// — a gap or overlap means the coordinator mis-assigned or double-
// applied a shard, and accepting it would silently corrupt estimates.
func TestImportRangeRejectsGapsAndOverlap(t *testing.T) {
	const seed = 31
	g, part := smallInstance(t)
	dst, err := NewPool(g, part, PoolOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	shard := buildShard(t, 0, 30, seed)
	var first bytes.Buffer
	if err := shard.ExportRange(&first, 0, 30); err != nil {
		t.Fatal(err)
	}
	firstBytes := first.Bytes()
	if err := dst.ImportRange(bytes.NewReader(firstBytes), 30); err != nil {
		t.Fatal(err)
	}

	// Re-applying the same range overlaps.
	if err := dst.ImportRange(bytes.NewReader(firstBytes), 30); err == nil ||
		!strings.Contains(err.Error(), "gap-free") {
		t.Fatalf("overlapping range accepted: %v", err)
	}

	// Skipping ahead leaves a gap.
	later := buildShard(t, 60, 90, seed)
	var gap bytes.Buffer
	if err := later.ExportRange(&gap, 60, 90); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportRange(&gap, 90); err == nil ||
		!strings.Contains(err.Error(), "gap-free") {
		t.Fatalf("gapped range accepted: %v", err)
	}
}

// TestImportRangeRejectsWrongEnd: an export that runs past (or stops
// short of) the caller's expected end is refused before anything is
// staged, so a worker answering with an overlong range cannot grow the
// pool past its target.
func TestImportRangeRejectsWrongEnd(t *testing.T) {
	const seed = 31
	g, part := smallInstance(t)
	dst := buildPool(t, g, part, 30, seed)
	before := capturePool(t, dst)
	var buf bytes.Buffer
	if err := buildShard(t, 30, 60, seed).ExportRange(&buf, 30, 60); err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int{50, 70} {
		if err := dst.ImportRange(bytes.NewReader(buf.Bytes()), hi); err == nil ||
			!strings.Contains(err.Error(), "ends at sample 60") {
			t.Fatalf("export [30, 60) accepted as [30, %d): %v", hi, err)
		}
		if !capturePool(t, dst).equal(before) {
			t.Fatalf("rejected [30, %d) import changed the pool", hi)
		}
	}
	if err := dst.ImportRange(bytes.NewReader(buf.Bytes()), 60); err != nil {
		t.Fatal(err)
	}
}

// TestImportRangeRejectsIdentityMismatch: a shard export sampled under
// a different seed must be refused, exactly like IMCP snapshots.
func TestImportRangeRejectsIdentityMismatch(t *testing.T) {
	g, part := smallInstance(t)
	shard := buildShard(t, 0, 10, 5)
	var buf bytes.Buffer
	if err := shard.ExportRange(&buf, 0, 10); err != nil {
		t.Fatal(err)
	}
	other, err := NewPool(g, part, PoolOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ImportRange(&buf, 10); err == nil ||
		!strings.Contains(err.Error(), "mix PRNG streams") {
		t.Fatalf("cross-seed shard accepted: %v", err)
	}
}

// TestImportRangeRejectsCorruption: truncation, trailing bytes, a bad
// magic and a v1 (previous sampler) range surface as descriptive
// errors, never panics.
func TestImportRangeRejectsCorruption(t *testing.T) {
	g, part := smallInstance(t)
	shard := buildShard(t, 0, 20, 3)
	var buf bytes.Buffer
	if err := shard.ExportRange(&buf, 0, 20); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh := func() *Pool {
		p, err := NewPool(g, part, PoolOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := fresh().ImportRange(bytes.NewReader(good[:len(good)-3]), 20); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated export accepted: %v", err)
	}
	if err := fresh().ImportRange(bytes.NewReader(append(append([]byte{}, good...), 0)), 20); err == nil ||
		!strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if err := fresh().ImportRange(bytes.NewReader(bad), 20); err == nil ||
		!strings.Contains(err.Error(), "shard magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
	v1 := append([]byte{}, good...)
	v1[4] = 1
	p := fresh()
	if err := p.ImportRange(bytes.NewReader(v1), 20); err == nil ||
		!strings.Contains(err.Error(), "format v1") {
		t.Fatalf("v1 export accepted: %v", err)
	}
	if p.NumSamples() != 0 {
		t.Fatalf("rejected v1 export left %d samples", p.NumSamples())
	}
}

// TestShardPoolRefusesPrefixFormats: IMCP Save/ReadInto carry no range,
// so a shard pool must refuse them rather than masquerade as a prefix.
func TestShardPoolRefusesPrefixFormats(t *testing.T) {
	shard := buildShard(t, 10, 20, 7)
	var buf bytes.Buffer
	if err := shard.Save(&buf); err == nil || !strings.Contains(err.Error(), "ExportRange") {
		t.Fatalf("shard pool Save accepted: %v", err)
	}
	g, part := smallInstance(t)
	empty, err := NewPool(g, part, PoolOptions{Seed: 7, Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.ReadInto(bytes.NewReader(nil)); err == nil || !strings.Contains(err.Error(), "ImportRange") {
		t.Fatalf("shard pool ReadInto accepted: %v", err)
	}
	if _, err := NewPool(g, part, PoolOptions{Seed: 7, Offset: -1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}
