package expt

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func ctxTestInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunAlgCtxCanceled(t *testing.T) {
	inst := ctxTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []string{AlgUBG, AlgMAF, AlgMB, AlgIM} {
		_, err := RunAlgCtx(ctx, inst, alg, 3, RunConfig{
			Seed: 1, Runs: 1, MaxSamples: 1 << 10, BTMaxRoots: 8,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled (errors.Is)", alg, err)
		}
	}
}

// TestRunAlgCtxDeterminism asserts the cancellation contract at the
// top of the stack: a run under a live, never-cancelled ctx selects
// byte-identical seeds and scores to a run under context.Background()
// for every algorithm — polling never touches a PRNG stream.
func TestRunAlgCtxDeterminism(t *testing.T) {
	inst := ctxTestInstance(t)
	cfg := RunConfig{Seed: 3, Runs: 1, MaxSamples: 1 << 11, EvalTMax: 1 << 11, BTMaxRoots: 8}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, alg := range []string{AlgUBG, AlgMAF, AlgMB, AlgHBC, AlgKS, AlgIM} {
		plain, err := RunAlgCtx(context.Background(), inst, alg, 4, cfg)
		if err != nil {
			t.Fatalf("%s plain: %v", alg, err)
		}
		withCtx, err := RunAlgCtx(ctx, inst, alg, 4, cfg)
		if err != nil {
			t.Fatalf("%s ctx: %v", alg, err)
		}
		if fmt.Sprint(plain.Seeds) != fmt.Sprint(withCtx.Seeds) {
			t.Errorf("%s: seeds diverge: %v vs %v", alg, plain.Seeds, withCtx.Seeds)
		}
		if plain.Benefit != withCtx.Benefit {
			t.Errorf("%s: benefit diverges: %v vs %v", alg, plain.Benefit, withCtx.Benefit)
		}
	}
}
