package ric

import (
	"context"
	"errors"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
)

func ctxInstance(t testing.TB) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.BarabasiAlbert(400, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(g.NumNodes(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	part.SetFractionThresholds(0.5)
	part.SetPopulationBenefits()
	return g, part
}

func TestGenerateCtxCanceledLeavesPoolUntouched(t *testing.T) {
	g, part := ctxInstance(t)
	pool, err := NewPool(g, part, PoolOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.GenerateCtx(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	if pool.NumSamples() != 100 {
		t.Fatalf("pool grew to %d samples after a canceled generate", pool.NumSamples())
	}
	if err := pool.DoubleCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoubleCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestGenerateCtxMidFlightCancellation(t *testing.T) {
	g, part := ctxInstance(t)
	pool, err := NewPool(g, part, PoolOptions{Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- pool.GenerateCtx(ctx, 1<<21)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A fast machine may legitimately finish the whole batch before
		// the cancel lands; anything else must be context.Canceled.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("GenerateCtx: err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("GenerateCtx did not return after cancellation")
	}
}

// TestGenerateCtxDeterminism is the tentpole invariant: a completed
// ctx-run folds byte-identical samples in byte-identical order — the
// cancellation polls never touch the PRNG streams.
func TestGenerateCtxDeterminism(t *testing.T) {
	g, part := ctxInstance(t)
	plain, err := NewPool(g, part, PoolOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Generate(600); err != nil {
		t.Fatal(err)
	}
	withCtx, err := NewPool(g, part, PoolOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := withCtx.GenerateCtx(ctx, 600); err != nil {
		t.Fatal(err)
	}
	if plain.NumSamples() != withCtx.NumSamples() {
		t.Fatalf("sample counts differ: %d vs %d", plain.NumSamples(), withCtx.NumSamples())
	}
	for i := 0; i < plain.NumSamples(); i++ {
		if plain.Sample(i) != withCtx.Sample(i) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, plain.Sample(i), withCtx.Sample(i))
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		a, _ := plain.Entries(graph.NodeID(v))
		b, _ := withCtx.Entries(graph.NodeID(v))
		if len(a) != len(b) {
			t.Fatalf("node %d: entry counts differ: %d vs %d", v, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d entry %d: sample %d vs %d", v, j, a[j], b[j])
			}
		}
	}
}
