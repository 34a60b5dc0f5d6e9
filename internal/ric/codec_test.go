package ric

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// codecInstance is a 300-node scale-free graph whose partition mixes
// mask widths: one 130-member community (3-word masks), one 70-member
// community (2 words), and ten-member groups (1 word), so the codec
// pins below cover every branch of the per-cover record.
func codecInstance(t testing.TB) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.BarabasiAlbert(300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	span := func(lo, hi int) []graph.NodeID {
		out := make([]graph.NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			out = append(out, graph.NodeID(v))
		}
		return out
	}
	sets := [][]graph.NodeID{span(0, 130), span(130, 200)}
	for lo := 200; lo < 300; lo += 10 {
		sets = append(sets, span(lo, lo+10))
	}
	part, err := community.New(300, sets)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(3)
	part.SetPopulationBenefits()
	return g, part
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCodecGoldenDigests pins the exact bytes Save and ExportRange
// emit for a fixed instance, seed, and sample count under both
// diffusion models. The digests were first recorded before the encoder
// was rewritten to batch each record into one write, and re-recorded
// for IMCP v3 / IMCS v2, whose IC samples come from the
// count-then-positions kernel; the LT streams differ from their v2/v1
// recordings in the version word only.
func TestCodecGoldenDigests(t *testing.T) {
	g, part := codecInstance(t)
	for _, tc := range []struct {
		model          diffusion.Model
		save, exported string
	}{
		{diffusion.IC,
			"8057f4a87528105ecea33a4e4f2841ebe750b08ea115376a2477cebf9d188bed",
			"427dca0319055a2ff2281b700b84d457706a1a171ecdd13769cd152867c8dbf6"},
		{diffusion.LT,
			"f30a6f5f7713e4815a20af6f39674f51c104fcefa6849543936a1786b976961f",
			"bce94f525e99e19c878bd45746d502f0c7c0c1e06bdcfbb1f3d8eb06fbb528de"},
	} {
		pool, err := NewPool(g, part, PoolOptions{Seed: 19, Model: tc.model})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.GenerateCtx(context.Background(), 600); err != nil {
			t.Fatal(err)
		}
		var save bytes.Buffer
		if err := pool.Save(&save); err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(save.Bytes()); got != tc.save {
			t.Errorf("%v: Save digest %s, want %s", tc.model, got, tc.save)
		}
		shard, err := NewPool(g, part, PoolOptions{Seed: 19, Model: tc.model, Offset: 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.EnsureCtx(context.Background(), 250); err != nil {
			t.Fatal(err)
		}
		var export bytes.Buffer
		if err := shard.ExportRange(&export, 200, 450); err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(export.Bytes()); got != tc.exported {
			t.Errorf("%v: ExportRange digest %s, want %s", tc.model, got, tc.exported)
		}
	}
}

// poolState captures everything a failed decode must leave untouched:
// the canonical Save bytes (samples plus the inverted index), the
// per-sample cover view, and the community frequencies.
type poolState struct {
	save   []byte
	covers *CoverView
	freq   []int
}

func capturePool(t testing.TB, p *Pool) poolState {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	freq := make([]int, p.part.NumCommunities())
	for c := range freq {
		freq[c] = p.CommunityFrequency(c)
	}
	return poolState{save: buf.Bytes(), covers: p.SampleCovers(), freq: freq}
}

func (s poolState) equal(o poolState) bool {
	return bytes.Equal(s.save, o.save) && reflect.DeepEqual(s.covers, o.covers) && reflect.DeepEqual(s.freq, o.freq)
}

// TestFailedImportRangeLeavesPoolUntouched: ImportRange stages the
// whole stream before folding it in, so an export cut at any byte
// leaves the receiving pool exactly as it was. A sample left behind
// with some covers missing would survive a caller's EnsureCtx, which
// sees the sample count already at target and generates nothing.
func TestFailedImportRangeLeavesPoolUntouched(t *testing.T) {
	const seed = 13
	g, part := smallInstance(t)
	shard, err := NewPool(g, part, PoolOptions{Seed: seed, Offset: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.EnsureCtx(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := shard.ExportRange(&buf, 40, 80); err != nil {
		t.Fatal(err)
	}
	export := buf.Bytes()

	pool := buildPool(t, g, part, 40, seed)
	before := capturePool(t, pool)
	for cut := 0; cut < len(export); cut++ {
		if err := pool.ImportRange(bytes.NewReader(export[:cut]), 80); err == nil {
			t.Fatalf("export cut at %d of %d accepted", cut, len(export))
		}
		if got := capturePool(t, pool); !got.equal(before) {
			t.Fatalf("export cut at %d of %d: failed import changed the pool (%d samples, want 40)", cut, len(export), pool.NumSamples())
		}
	}
	// The untouched pool still takes the intact range, and the result
	// is the pool one process would have generated.
	if err := pool.ImportRange(bytes.NewReader(export), 80); err != nil {
		t.Fatal(err)
	}
	if got, want := capturePool(t, pool), capturePool(t, buildPool(t, g, part, 80, seed)); !got.equal(want) {
		t.Fatal("import after failed attempts differs from local generation")
	}
}

// TestFailedReadIntoLeavesPoolEmpty: a snapshot cut at any byte leaves
// the pool empty, so the same pool can then load the intact snapshot.
func TestFailedReadIntoLeavesPoolEmpty(t *testing.T) {
	g, part := smallInstance(t)
	src := buildPool(t, g, part, 30, 5)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	pool, err := NewPool(g, part, PoolOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	empty := capturePool(t, pool)
	for cut := 0; cut < len(good); cut++ {
		if err := pool.ReadInto(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("snapshot cut at %d of %d accepted", cut, len(good))
		}
		if got := capturePool(t, pool); !got.equal(empty) {
			t.Fatalf("snapshot cut at %d of %d: failed load left %d samples behind", cut, len(good), pool.NumSamples())
		}
	}
	if err := pool.ReadInto(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact snapshot rejected after failed loads: %v", err)
	}
	if got := capturePool(t, pool); !got.equal(capturePool(t, src)) {
		t.Fatal("reloaded pool differs from its source")
	}
}

// TestDecodeAllocatesNoMoreThanGenerate pins the codec's allocation
// budget: loading a pool (ReadInto) or splicing it (ImportRange) must
// not allocate more than drawing the same samples with one generation
// worker. Both paths stage the same per-sample storage (cover nodes,
// one flat run of mask words) and grow the same inverted index, so
// anything beyond that is decoder overhead.
func TestDecodeAllocatesNoMoreThanGenerate(t *testing.T) {
	const count, seed = 2000, 9
	g, part := benchInstance(t)
	src := buildPool(t, g, part, count, seed)
	var snap, export bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := src.ExportRange(&export, 0, count); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Pool {
		p, err := NewPool(g, part, PoolOptions{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	generate := testing.AllocsPerRun(3, func() {
		if err := fresh().GenerateCtx(context.Background(), count); err != nil {
			t.Fatal(err)
		}
	})
	read := testing.AllocsPerRun(3, func() {
		if err := fresh().ReadInto(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	splice := testing.AllocsPerRun(3, func() {
		if err := fresh().ImportRange(bytes.NewReader(export.Bytes()), count); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per sample: generate %.2f, ReadInto %.2f, ImportRange %.2f",
		generate/count, read/count, splice/count)
	if read > generate {
		t.Errorf("ReadInto allocates %.0f objects for %d samples, GenerateCtx %.0f", read, count, generate)
	}
	if splice > generate {
		t.Errorf("ImportRange allocates %.0f objects for %d samples, GenerateCtx %.0f", splice, count, generate)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestDecodeStagesInChunks pins the staging arenas of both paths that
// fill a pool: the decoder and the generator carve every sample's cover
// nodes and mask words out of shared chunks, so loading, splicing or
// drawing 2,000 samples allocates only a few dozen objects beyond the
// inverted index that fold grows for them, not one or two per sample.
func TestDecodeStagesInChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds allocations to fold's run growth, which every path shares")
	}
	const count, seed = 2000, 9
	// stagingBudget bounds the allocations beyond fold's own per 2,000
	// samples: buffers, arena chunks and scratch growth, all amortized.
	const stagingBudget = count / 20
	g, part := benchInstance(t)
	src := buildPool(t, g, part, count, seed)
	var snap, export bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := src.ExportRange(&export, 0, count); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Pool {
		p, err := NewPool(g, part, PoolOptions{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sampler, err := NewGenerator(g, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]rawSample, count)
	root := xrand.New(seed)
	var rng xrand.RNG
	for i := range raws {
		root.SplitInto(uint64(i), &rng)
		raws[i] = sampler.Generate(&rng)
	}
	// fold only reads the staged samples, so the same ones fold into
	// every fresh pool.
	folded := testing.AllocsPerRun(3, func() { fresh().fold(raws) })
	for _, tc := range []struct {
		name string
		fill func(p *Pool) error
	}{
		{"GenerateCtx", func(p *Pool) error { return p.GenerateCtx(context.Background(), count) }},
		{"ReadInto", func(p *Pool) error { return p.ReadInto(bytes.NewReader(snap.Bytes())) }},
		{"ImportRange", func(p *Pool) error { return p.ImportRange(bytes.NewReader(export.Bytes()), count) }},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := tc.fill(fresh()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs, fold alone %.0f", tc.name, allocs, folded)
		if allocs-folded > stagingBudget {
			t.Errorf("%s allocates %.0f objects for %d samples, %.0f beyond fold's %.0f (budget %d)", tc.name, allocs, count, allocs-folded, folded, stagingBudget)
		}
	}
}
