package ric

import (
	"bytes"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// FuzzPoolRoundTrip feeds arbitrary bytes to the pool deserializer.
// Invariants under fuzzing:
//
//  1. ReadInto never panics — malformed input must surface as an error.
//  2. Any input ReadInto accepts re-serializes, and Save∘ReadInto is a
//     fixpoint: saving the loaded pool and loading THAT must produce
//     byte-identical output and equal sample metadata. (v2 streams are
//     strict: trailing garbage after the declared sample count is an
//     error, and the identity header must match the receiving pool, so
//     accepted inputs always carry the fuzz pool's seed and model.)
func FuzzPoolRoundTrip(f *testing.F) {
	g, part := smallInstance(f)
	seedPool := buildPool(f, g, part, 50, 7)
	var seed bytes.Buffer
	if err := seedPool.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:len(seed.Bytes())/2])
	corrupt := append([]byte(nil), seed.Bytes()...)
	corrupt[12] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("IMCP"))
	f.Add([]byte{})
	// Mutations of a valid encoding: truncate at every header boundary
	// and deep into the sample records, and flip bits marching through
	// the whole stream, so the fuzzer starts from inputs that are wrong
	// in exactly one field — the shapes hand-written corruption checks
	// tend to miss.
	valid := seed.Bytes()
	for _, cut := range []int{3, 4, 7, 8, 15, 16, 19, 20, 27, 28, 35, 36, 43, 44, 51, 52, len(valid) - 7, len(valid) - 1} {
		if cut >= 0 && cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	for off := 0; off < len(valid); off += 53 {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := NewPool(g, part, PoolOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := p1.ReadInto(bytes.NewReader(data)); err != nil {
			return // rejected input is fine; panics are the bug
		}
		var save1 bytes.Buffer
		if err := p1.Save(&save1); err != nil {
			t.Fatalf("accepted input failed to re-serialize: %v", err)
		}
		p2, err := NewPool(g, part, PoolOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := p2.ReadInto(bytes.NewReader(save1.Bytes())); err != nil {
			t.Fatalf("own Save output rejected: %v", err)
		}
		if p1.NumSamples() != p2.NumSamples() {
			t.Fatalf("sample count drifted: %d -> %d", p1.NumSamples(), p2.NumSamples())
		}
		for i := 0; i < p1.NumSamples(); i++ {
			if p1.Sample(i) != p2.Sample(i) {
				t.Fatalf("sample %d drifted: %+v vs %+v", i, p1.Sample(i), p2.Sample(i))
			}
		}
		var save2 bytes.Buffer
		if err := p2.Save(&save2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(save1.Bytes(), save2.Bytes()) {
			t.Fatal("Save∘ReadInto is not a fixpoint: second save differs from first")
		}
	})
}

// FuzzImportRange feeds arbitrary bytes and an arbitrary expected end
// to the shard-range splice of a pool that already holds samples
// [0, 20). Invariants under fuzzing:
//
//  1. ImportRange never panics.
//  2. A rejected input leaves the pool exactly as it was: import is
//     atomic, so no partial sample or stray index entry survives.
//  3. An accepted input re-exports to its own bytes. The decoder
//     accepts only the canonical encoding (covers in strictly ascending
//     node order, nonzero masks with no bit at or above the member
//     count, exact widths), which is exactly what ExportRange writes,
//     so import and export are inverse on every accepted input.
func FuzzImportRange(f *testing.F) {
	const seed, have, want = 7, 20, 40
	g, part := smallInstance(f)
	src := buildPool(f, g, part, want, seed)
	donor := donorOf(f, src)
	var valid bytes.Buffer
	if err := src.ExportRange(&valid, have, want); err != nil {
		f.Fatal(err)
	}
	export := valid.Bytes()
	f.Add(export, uint16(want))
	f.Add(export, uint16(want+1))
	f.Add([]byte("IMCS"), uint16(want))
	f.Add([]byte{}, uint16(want))
	for cut := 0; cut < len(export); cut += 29 {
		f.Add(append([]byte(nil), export[:cut]...), uint16(want))
	}
	for off := 0; off < len(export); off += 31 {
		flipped := append([]byte(nil), export...)
		flipped[off] ^= 0x41
		f.Add(flipped, uint16(want))
	}
	// Non-canonical covers in the first record: a mask bit above the
	// member count, a repeated cover node, an empty mask.
	mask := exportFirstRecord + recordHeader + 8
	for _, corrupt := range []func(b []byte){
		func(b []byte) { b[mask+7] |= 0x80 },
		func(b []byte) { copy(b[mask-8+coverRecord:], b[mask-8:mask-4]) },
		func(b []byte) { clear(b[mask : mask+8]) },
	} {
		bad := append([]byte(nil), export...)
		corrupt(bad)
		f.Add(bad, uint16(want))
	}

	base := func(t testing.TB) *Pool {
		p, err := NewPool(g, part, PoolOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.ExtendTo(p, have); err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := capturePool(f, base(f))

	f.Fuzz(func(t *testing.T, data []byte, end uint16) {
		hi := int(end)
		p := base(t)
		if err := p.ImportRange(bytes.NewReader(data), hi); err != nil {
			if !capturePool(t, p).equal(before) {
				t.Fatalf("rejected input (%v) changed the pool", err)
			}
			return
		}
		if got := p.NumSamples(); got != hi {
			t.Fatalf("accepted import ends at %d samples, want %d", got, hi)
		}
		var out bytes.Buffer
		if err := p.ExportRange(&out, have, hi); err != nil {
			t.Fatalf("accepted range [%d, %d) failed to re-export: %v", have, hi, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted input does not re-export to its own bytes")
		}
	})
}

// FuzzSamplerMatchesReference replays one stream of refGraph (which has
// self-loops) through Generate, Influenced and FractionalInfluence and
// through the reference sampler in livein_test.go. The fuzzer picks the
// stream, the weight scheme, the partition (its shuffle seed and
// community size, up to one 150-member community of three mask words)
// and the model; covers, answers and the stream state afterwards must
// match the reference's.
func FuzzSamplerMatchesReference(f *testing.F) {
	base := refGraph(f)
	weighted := make([]*graph.Graph, len(refSchemes))
	for k, sc := range refSchemes {
		weighted[k] = graph.ApplyWeights(base, sc.scheme, sc.p, 7)
	}
	// Constant1 (scheme 4) makes every edge live: the self-loops on 0,
	// 7, 42 and 99 then sit inside any region that reaches them, and
	// every edge between two members of a community is a live
	// member-to-member edge.
	f.Add(uint64(0), uint8(4), uint64(1), uint8(8), false)    // self-loops and member-to-member edges
	f.Add(uint64(3), uint8(3), uint64(2), uint8(3), false)    // small communities, p = 0.37
	f.Add(uint64(5), uint8(0), uint64(11), uint8(100), false) // W = 2, weighted cascade
	f.Add(uint64(9), uint8(4), uint64(11), uint8(100), true)  // W = 2, LT
	f.Add(uint64(2), uint8(1), uint64(4), uint8(150), false)  // one community, W = 3
	f.Fuzz(func(t *testing.T, stream uint64, scheme uint8, partSeed uint64, size uint8, lt bool) {
		part, inSeed := refPartition(t, partSeed, 1+int(size)%refGraphNodes)
		model := diffusion.IC
		if lt {
			model = diffusion.LT
		}
		sampler, err := NewGenerator(weighted[int(scheme)%len(weighted)], part, model)
		if err != nil {
			t.Fatal(err)
		}
		root := xrand.New(partSeed ^ 0x5eed)
		// Two streams through one generator, so the second draw runs on
		// scratch the first one left behind.
		for _, i := range []uint64{stream, stream + 1} {
			if err := matchReference(sampler, inSeed, root, i); err != nil {
				t.Fatal(err)
			}
		}
	})
}
