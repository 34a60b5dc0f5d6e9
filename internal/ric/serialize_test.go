package ric

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
)

func TestPoolSerializationRoundTrip(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 3000, 11)

	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The receiving pool must carry the snapshot's identity: same seed
	// (and default model) over the same graph.
	back, err := NewPool(g, part, PoolOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ReadInto(&buf); err != nil {
		t.Fatal(err)
	}
	if back.NumSamples() != pool.NumSamples() {
		t.Fatalf("sample count %d -> %d", pool.NumSamples(), back.NumSamples())
	}
	for i := 0; i < pool.NumSamples(); i++ {
		if pool.Sample(i) != back.Sample(i) {
			t.Fatalf("sample %d mangled: %+v vs %+v", i, pool.Sample(i), back.Sample(i))
		}
	}
	for c := 0; c < part.NumCommunities(); c++ {
		if pool.CommunityFrequency(c) != back.CommunityFrequency(c) {
			t.Fatalf("community %d frequency changed", c)
		}
	}
	// Every evaluation must agree exactly.
	for _, seeds := range [][]graph.NodeID{{0}, {1, 3}, {0, 2, 4}, {5}} {
		if pool.CHat(seeds) != back.CHat(seeds) {
			t.Fatalf("ĉ differs for %v", seeds)
		}
		if pool.NuHat(seeds) != back.NuHat(seeds) {
			t.Fatalf("ν̂ differs for %v", seeds)
		}
	}
	// The reloaded pool keeps growing correctly — and because it has the
	// snapshot's seed, the extension continues the same sample sequence.
	if err := back.GenerateCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if back.NumSamples() != pool.NumSamples()+100 {
		t.Fatal("post-load generation broken")
	}
}

// TestReadIntoRejectsIdentityMismatch is the v2 point: a snapshot only
// loads into a pool with the exact same sampling identity. Loading
// under a different seed or model used to succeed silently and then
// fork the PRNG streams on the next doubling.
func TestReadIntoRejectsIdentityMismatch(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 50, 11)
	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("wrong seed", func(t *testing.T) {
		p, err := NewPool(g, part, PoolOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(good))
		if err == nil || !strings.Contains(err.Error(), "mix PRNG streams") {
			t.Fatalf("want seed-mismatch error, got %v", err)
		}
	})
	t.Run("wrong model", func(t *testing.T) {
		p, err := NewPool(g, part, PoolOptions{Seed: 11, Model: diffusion.LT})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(good))
		if err == nil || !strings.Contains(err.Error(), "sampled under model") {
			t.Fatalf("want model-mismatch error, got %v", err)
		}
	})
	t.Run("different weights", func(t *testing.T) {
		// Same topology, one perturbed weight: shape checks all pass,
		// only the weight digest can catch it.
		b := graph.NewBuilder(6)
		for _, e := range g.Edges() {
			w := e.Weight
			if e.From == 0 && e.To == 1 {
				w += 0.125
			}
			b.AddEdge(e.From, e.To, w)
		}
		g2, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPool(g2, part, PoolOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(good))
		if err == nil || !strings.Contains(err.Error(), "weight digest") {
			t.Fatalf("want digest-mismatch error, got %v", err)
		}
	})
	t.Run("v1 stream", func(t *testing.T) {
		v1 := append([]byte(nil), good...)
		v1[4], v1[5], v1[6], v1[7] = 1, 0, 0, 0
		p, err := NewPool(g, part, PoolOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(v1))
		if err == nil || !strings.Contains(err.Error(), "format v1") {
			t.Fatalf("want v1-upgrade error, got %v", err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("re-save as v%d", poolVersion)) {
			t.Fatalf("v1 error should tell the operator what to do, got %v", err)
		}
	})
	t.Run("v2 stream", func(t *testing.T) {
		v2 := append([]byte(nil), good...)
		v2[4], v2[5], v2[6], v2[7] = 2, 0, 0, 0
		p, err := NewPool(g, part, PoolOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(v2))
		if err == nil || !strings.Contains(err.Error(), "format v2") || !strings.Contains(err.Error(), "re-save as v3") {
			t.Fatalf("want a v2-upgrade error naming v3, got %v", err)
		}
		if p.NumSamples() != 0 {
			t.Fatalf("rejected v2 stream left %d samples", p.NumSamples())
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		withTail := append(append([]byte(nil), good...), 0xAB)
		p, err := NewPool(g, part, PoolOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		err = p.ReadInto(bytes.NewReader(withTail))
		if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("want trailing-bytes error, got %v", err)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("trailing-bytes error should carry the offset, got %v", err)
		}
	})
}

func TestPoolReadIntoValidation(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 100, 3)
	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Non-empty pool rejected.
	if err := pool.ReadInto(bytes.NewReader(good)); err == nil {
		t.Fatal("want non-empty error")
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	empty, err := NewPool(g, part, PoolOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.ReadInto(bytes.NewReader(bad)); err == nil {
		t.Fatal("want magic error")
	}
	// Mismatched partition (different community count).
	otherPart, err := community.New(6, [][]graph.NodeID{{0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	otherPool, err := NewPool(g, otherPart, PoolOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := otherPool.ReadInto(bytes.NewReader(good)); err == nil {
		t.Fatal("want community-count error")
	}
	// Truncation.
	fresh, err := NewPool(g, part, PoolOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReadInto(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("want truncation error")
	}
}

// TestReadIntoRejectsCorrupt corrupts one field at a time in a valid
// encoding and asserts the decoder names the problem instead of
// accepting garbage or panicking. Offsets follow the documented v2
// layout: 52-byte header (magic 0, version 4, seed 8, model 16,
// wdigest 20, n 28, r 36, count 44), then per sample
// comm/threshold/members/covers at +0/+4/+8/+12 and the first cover's
// node/words at +16/+20.
func TestReadIntoRejectsCorrupt(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 20, 5)
	var buf bytes.Buffer
	if err := pool.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	put32 := func(b []byte, off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:40] }, "truncated reading community count"},
		{"truncated mid-sample", func(b []byte) []byte { return b[:54] }, "truncated reading sample 0 community"},
		{"truncated mid-mask", func(b []byte) []byte { return b[:len(b)-3] }, "truncated"},
		{"bad version", func(b []byte) []byte { put32(b, 4, 99); return b }, "unsupported pool version 99"},
		{"v1 version", func(b []byte) []byte { put32(b, 4, 1); return b }, "format v1"},
		{"v2 version", func(b []byte) []byte { put32(b, 4, 2); return b }, "format v2"},
		{"flipped seed", func(b []byte) []byte { b[8] ^= 0xff; return b }, "mix PRNG streams"},
		{"flipped model", func(b []byte) []byte { put32(b, 16, 2); return b }, "sampled under model"},
		{"flipped digest", func(b []byte) []byte { b[20] ^= 0xff; return b }, "weight digest"},
		{"community out of range", func(b []byte) []byte { put32(b, 52, 1<<30); return b }, "out of range"},
		{"zero threshold", func(b []byte) []byte { put32(b, 56, 0); return b }, "threshold 0 out of [1, 3 members]"},
		{"threshold above members", func(b []byte) []byte { put32(b, 56, 9); return b }, "threshold 9 out of [1, 3 members]"},
		{"member count mismatch", func(b []byte) []byte { put32(b, 60, 4); return b }, "members recorded but community"},
		{"cover count overflow", func(b []byte) []byte { put32(b, 64, 1<<27); return b }, "covers exceed node count"},
		{"mask width mismatch", func(b []byte) []byte { put32(b, 72, 7); return b }, "mask of 7 words for 3 members (want 1)"},
		{"absurd sample count", func(b []byte) []byte { put32(b, 44, 1<<31); put32(b, 48, 0); return b }, "sample count 2147483648 out of range"},
		{"declared samples missing", func(b []byte) []byte { put32(b, 44, 1<<20); return b }, "truncated"},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(g, part, PoolOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			data := tc.mutate(append([]byte(nil), good...))
			err = p.ReadInto(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Exhaustive no-panic sweep: every truncation point and a bit flip
	// at every offset must decode to an error or a valid pool — never a
	// panic or a hang.
	for cut := 0; cut < len(good); cut++ {
		p, err := NewPool(g, part, PoolOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ReadInto(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(good))
		}
	}
	for off := 0; off < len(good); off++ {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x10
		p, err := NewPool(g, part, PoolOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		_ = p.ReadInto(bytes.NewReader(flipped)) // error or not: just must not panic
	}
}
