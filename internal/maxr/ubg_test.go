package maxr

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/ric"
)

// workersPool generates a 3000-sample pool with the given worker count:
// enough samples that the fold splits into as many chunks as workers.
func workersPool(t *testing.T, workers int) *ric.Pool {
	t.Helper()
	g, err := gen.RandomDirected(120, 600, 0.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(120, 12, 18)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(3)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 19, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// Two folds, so the second appends to runs the first left behind.
	if err := pool.GenerateCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestUBGIndependentOfWorkers: pools folded at 1, 2 and 4 workers are
// byte-identical, and UBG, whose two greedy halves run concurrently,
// returns on each the seeds of the halves run one after the other.
func TestUBGIndependentOfWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		pool := workersPool(t, workers)
		var buf bytes.Buffer
		if err := pool.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: the folded pool differs from the 1-worker pool", workers)
		}
		for _, k := range []int{1, 3, 6} {
			got, err := UBG{}.SolveCtx(context.Background(), pool, k)
			if err != nil {
				t.Fatal(err)
			}
			sNu, err := GreedyNuCtx(context.Background(), pool, k)
			if err != nil {
				t.Fatal(err)
			}
			sC, err := GreedyCHatCtx(context.Background(), pool, k)
			if err != nil {
				t.Fatal(err)
			}
			best := sNu
			if pool.CoverageCount(sC) > pool.CoverageCount(sNu) {
				best = sC
			}
			if !slices.Equal(got.Seeds, best) {
				t.Fatalf("workers=%d k=%d: UBG seeds %v, sequential halves give %v", workers, k, got.Seeds, best)
			}
		}
	}
}

// pollLimitCtx reports cancellation from its limit-th Err call on, so
// a solver that polls Err at batch boundaries is cancelled mid-run,
// at a point that does not depend on timing.
type pollLimitCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollLimitCtx) Err() error {
	if c.polls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestUBGCancelledMidSolve: a ctx cancelled while both greedy halves
// run makes SolveCtx return ctx's error, and neither half's goroutine
// outlives the call.
func TestUBGCancelledMidSolve(t *testing.T) {
	pool := workersPool(t, 2)
	runtime.GC()
	before := runtime.NumGoroutine()
	for _, limit := range []int64{2, 3, 4, 6} {
		ctx := &pollLimitCtx{Context: context.Background(), limit: limit}
		if _, err := (UBG{}).SolveCtx(ctx, pool, 40); !errors.Is(err, context.Canceled) {
			t.Fatalf("limit=%d: err = %v, want context.Canceled", limit, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d: a greedy half outlived SolveCtx", before, after)
	}
}
