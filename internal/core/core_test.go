package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// testInstance builds a 30-node random graph with 6 random communities
// (threshold 2, population benefits).
func testInstance(t testing.TB, seed uint64) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.RandomDirected(30, 100, 0.4, seed)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(30, 6, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func TestSolveEndToEnd(t *testing.T) {
	g, part := testInstance(t, 3)
	sol, err := Solve(g, part, maxr.UBG{}, Options{K: 4, Eps: 0.3, Delta: 0.3, Seed: 7, MaxSamples: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 4 {
		t.Fatalf("got %d seeds", len(sol.Seeds))
	}
	if sol.CHat <= 0 || sol.CHat > part.TotalBenefit() {
		t.Fatalf("ĉ = %g out of range", sol.CHat)
	}
	if sol.Samples < 1 {
		t.Fatal("no samples recorded")
	}
	if sol.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	// The pool estimate must agree with an independent Monte-Carlo
	// estimate of c(S) within loose statistical tolerance.
	mc, err := diffusion.EstimateBenefit(g, part, sol.Seeds, diffusion.MCOptions{Iterations: 20000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.CHat-mc) > 0.15*part.TotalBenefit() {
		t.Fatalf("pool ĉ = %g vs Monte-Carlo c = %g", sol.CHat, mc)
	}
}

func TestSolveAllSolvers(t *testing.T) {
	g, part := testInstance(t, 9)
	for _, s := range []maxr.Solver{maxr.UBG{}, maxr.MAF{}, maxr.MB{BT: maxr.BT{MaxRoots: 10}}} {
		sol, err := Solve(g, part, s, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 13})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sol.Seeds) != 3 {
			t.Fatalf("%s returned %d seeds", s.Name(), len(sol.Seeds))
		}
		if sol.Stopped != StopCondition && sol.Stopped != StopPsiCap && sol.Stopped != StopSampleCap {
			t.Fatalf("%s: unknown stop reason %v", s.Name(), sol.Stopped)
		}
	}
}

// TestSolveVacuousGuarantee regresses the Ψ=∞ path: MAF's ⌊k/h⌋/r
// guarantee is zero when every threshold exceeds k, and IMCAF must fall
// back to the MaxSamples-bounded doubling schedule rather than erroring.
func TestSolveVacuousGuarantee(t *testing.T) {
	g, err := gen.RandomDirected(30, 120, 0.5, 77)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(30, 3, 78)
	if err != nil {
		t.Fatal(err)
	}
	part.SetFractionThresholds(0.9) // h ≈ 9-10 > k
	part.SetPopulationBenefits()
	sol, err := Solve(g, part, maxr.MAF{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 3 {
		t.Fatalf("got %d seeds", len(sol.Seeds))
	}
	if sol.Alpha != 0 {
		t.Fatalf("alpha = %g, want 0 (vacuous)", sol.Alpha)
	}
}

func TestSolveNuGuided(t *testing.T) {
	g, part := testInstance(t, 21)
	sol, err := Solve(g, part, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 13, NuGuided: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 3 {
		t.Fatalf("got %d seeds", len(sol.Seeds))
	}
	if math.Abs(sol.Alpha-(1-1/math.E)) > 1e-12 {
		t.Fatalf("ν-guided alpha = %g", sol.Alpha)
	}
	if sol.SandwichRatio < 0 || sol.SandwichRatio > 1+1e-9 {
		t.Fatalf("sandwich ratio %g", sol.SandwichRatio)
	}
}

func TestSolveFixed(t *testing.T) {
	g, part := testInstance(t, 31)
	sol, err := SolveFixed(g, part, maxr.UBG{}, 3, 500, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Samples != 500 {
		t.Fatalf("samples = %d, want exactly 500", sol.Samples)
	}
	if len(sol.Seeds) != 3 {
		t.Fatalf("seeds = %v", sol.Seeds)
	}
	if _, err := SolveFixed(g, part, maxr.UBG{}, 3, 0, Options{}); err == nil {
		t.Fatal("want numSamples error")
	}
}

func TestSolveDeterministic(t *testing.T) {
	g, part := testInstance(t, 41)
	opts := Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 77, MaxSamples: 1 << 12}
	a, err := Solve(g, part, maxr.UBG{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, part, maxr.UBG{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.CHat != b.CHat || a.Samples != b.Samples || len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seeds differ: %v vs %v", a.Seeds, b.Seeds)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g, part := testInstance(t, 51)
	bad := []Options{
		{K: 0, Eps: 0.2, Delta: 0.2},
		{K: 2, Eps: 0, Delta: 0.2},
		{K: 2, Eps: 0.2, Delta: 1.5},
		{K: 1000, Eps: 0.2, Delta: 0.2}, // K > n
	}
	for i, o := range bad {
		if _, err := Solve(g, part, maxr.UBG{}, o); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	// Mismatched partition.
	small, err := community.Random(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, small, maxr.UBG{}, Options{K: 2, Eps: 0.2, Delta: 0.2}); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestEstimateAgainstMonteCarlo(t *testing.T) {
	g, part := testInstance(t, 61)
	seeds := []graph.NodeID{0, 1, 2, 3, 4, 5}
	est, err := Estimate(g, part, seeds, EstimateOptions{Eps: 0.1, Delta: 0.1, TMax: 1 << 18, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged {
		t.Fatal("estimate did not converge on a rich seed set")
	}
	mc, err := diffusion.EstimateBenefit(g, part, seeds, diffusion.MCOptions{Iterations: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mc <= 0 {
		t.Fatal("MC benefit unexpectedly zero")
	}
	if math.Abs(est.Benefit-mc)/mc > 0.2 {
		t.Fatalf("Estimate %g vs Monte-Carlo %g", est.Benefit, mc)
	}
}

func TestEstimateFractionalAtLeastIndicator(t *testing.T) {
	g, part := testInstance(t, 71)
	seeds := []graph.NodeID{0, 1, 2}
	ind, err := Estimate(g, part, seeds, EstimateOptions{Eps: 0.15, Delta: 0.15, TMax: 1 << 17, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	frac, err := Estimate(g, part, seeds, EstimateOptions{Eps: 0.15, Delta: 0.15, TMax: 1 << 17, Seed: 9, Fractional: true})
	if err != nil {
		t.Fatal(err)
	}
	// ν(S) ≥ c(S) (Lemma 3); allow statistical slack.
	if frac.Benefit < ind.Benefit*0.7 {
		t.Fatalf("fractional estimate %g implausibly below indicator %g", frac.Benefit, ind.Benefit)
	}
}

func TestEstimateValidation(t *testing.T) {
	g, part := testInstance(t, 81)
	cases := []EstimateOptions{
		{Eps: 0, Delta: 0.1, TMax: 10},
		{Eps: 0.1, Delta: 0, TMax: 10},
		{Eps: 0.1, Delta: 0.1, TMax: 0},
	}
	for i, o := range cases {
		if _, err := Estimate(g, part, []graph.NodeID{0}, o); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

func TestPsiBoundBehaviour(t *testing.T) {
	g, part := testInstance(t, 91)
	base := PsiBound(g, part, 4, 0.5, 0.1, 0.1, 0.1, 0.1)
	if base <= 0 || math.IsInf(base, 1) {
		t.Fatalf("Ψ = %g", base)
	}
	// Weaker α needs more samples.
	weak := PsiBound(g, part, 4, 0.05, 0.1, 0.1, 0.1, 0.1)
	if weak <= base {
		t.Fatalf("Ψ(α=0.05)=%g not above Ψ(α=0.5)=%g", weak, base)
	}
	// Tighter ε needs more samples.
	tight := PsiBound(g, part, 4, 0.5, 0.05, 0.05, 0.1, 0.1)
	if tight <= base {
		t.Fatalf("Ψ(ε/2)=%g not above Ψ=%g", tight, base)
	}
	if v := PsiBound(g, part, 4, 0, 0.1, 0.1, 0.1, 0.1); !math.IsInf(v, 1) {
		t.Fatalf("Ψ with α=0 should be +Inf, got %g", v)
	}
}

func TestStopReasonString(t *testing.T) {
	if StopCondition.String() != "stop-condition" || StopPsiCap.String() != "psi-cap" || StopSampleCap.String() != "sample-cap" {
		t.Fatal("StopReason strings wrong")
	}
	if StopReason(99).String() != "StopReason(99)" {
		t.Fatal("unknown stop reason string")
	}
}

// TestSolveLeavesNoGoroutines certifies every worker goroutine joins:
// the goroutine count after repeated solves must return to (near) the
// pre-solve level.
func TestSolveLeavesNoGoroutines(t *testing.T) {
	g, part := testInstance(t, 7)
	// Warm up once so lazily-started runtime goroutines don't count.
	if _, err := Solve(g, part, maxr.MAF{}, Options{K: 2, Eps: 0.3, Delta: 0.3, Seed: 1, MaxSamples: 1 << 11, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Solve(g, part, maxr.MAF{}, Options{K: 2, Eps: 0.3, Delta: 0.3, Seed: uint64(i), MaxSamples: 1 << 11, Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d: worker leak", before, after)
	}
}

// TestSolveRounds checks the round trace: one entry per loop pass with
// consecutive Doublings and doubling Samples, skipped rounds unchecked
// and empty, and a last entry that carries the returned candidate —
// its CHat is Solution.CHat and, under StopCondition, its Estimate is
// EstimatedBenefit.
func TestSolveRounds(t *testing.T) {
	g, part := testInstance(t, 61)
	for _, tc := range []struct {
		name string
		opts Options
		want StopReason
	}{
		{"stop-condition", Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 15}, StopCondition},
		{"sample-cap", Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 9}, StopSampleCap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := Solve(g, part, maxr.MAF{Seed: 3}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stopped != tc.want {
				t.Fatalf("stopped by %v, want %v", sol.Stopped, tc.want)
			}
			rounds := sol.Rounds
			if len(rounds) != sol.Doublings+1 {
				t.Fatalf("%d rounds for %d doublings", len(rounds), sol.Doublings)
			}
			for i, r := range rounds {
				if r.Doublings != i {
					t.Fatalf("round %d has Doublings %d", i, r.Doublings)
				}
				if i > 0 && r.Samples != 2*rounds[i-1].Samples {
					t.Fatalf("round %d has %d samples after %d", i, r.Samples, rounds[i-1].Samples)
				}
				if r.Skipped && r != (Round{Doublings: r.Doublings, Samples: r.Samples, Skipped: true}) {
					t.Fatalf("skipped round %d carries a pass or a check: %+v", i, r)
				}
				if !r.Checked && (r.Estimate != 0 || r.Converged) {
					t.Fatalf("unchecked round %d carries an estimate: %+v", i, r)
				}
			}
			last := rounds[len(rounds)-1]
			if last.Skipped || last.Samples != sol.Samples || last.CHat != sol.CHat {
				t.Fatalf("last round %+v does not carry the solution (samples %d, ĉ %g)", last, sol.Samples, sol.CHat)
			}
			if tc.want == StopCondition && (!last.Checked || !last.Converged || last.Estimate != sol.EstimatedBenefit) {
				t.Fatalf("last round %+v does not carry the certifying estimate %g", last, sol.EstimatedBenefit)
			}
		})
	}
}

// TestNonSubmodularExample reproduces the flavor of the paper's Fig. 2:
// a concrete instance where the marginal gain of b grows after a is
// added, certifying that c(·) is not submodular.
func TestNonSubmodularExample(t *testing.T) {
	// a -> x1, b -> x2, community {x1, x2} with threshold 2: alone each
	// seed influences nothing; together they can.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2, 1) // a -> x1
	b.AddEdge(1, 3, 1) // b -> x2
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.New(4, [][]graph.NodeID{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	mc := func(seeds []graph.NodeID) float64 {
		v, err := diffusion.EstimateBenefit(g, part, seeds, diffusion.MCOptions{Iterations: 200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cEmpty, cA, cB, cAB := 0.0, mc([]graph.NodeID{0}), mc([]graph.NodeID{1}), mc([]graph.NodeID{0, 1})
	// Submodularity would require c(b)−c(∅) ≥ c(ab)−c(a).
	if cB-cEmpty >= cAB-cA {
		t.Fatalf("instance unexpectedly submodular: c(b)=%g, c(ab)=%g, c(a)=%g", cB, cAB, cA)
	}
	if cAB != 2 {
		t.Fatalf("c({a,b}) = %g, want 2 (deterministic edges)", cAB)
	}
}

// savedCheckpoint is one serialized pool-growth boundary captured by
// the checkpoint tests.
type savedCheckpoint struct {
	doublings int
	pool      []byte
}

func captureCheckpoints(t *testing.T, sink *[]savedCheckpoint) CheckpointFunc {
	t.Helper()
	return func(cp Checkpoint) error {
		var buf bytes.Buffer
		if err := cp.Pool.Save(&buf); err != nil {
			return err
		}
		*sink = append(*sink, savedCheckpoint{doublings: cp.Doublings, pool: buf.Bytes()})
		return nil
	}
}

// TestSolveCheckpointResume pins the resume contract: restarting the
// stop-and-stare loop at ANY round of the uninterrupted run's trace,
// skipped rounds included, from a pool of that round's size reproduces
// the uninterrupted run's solution exactly — same seeds, same
// estimates, same stop reason. A skipped round is where checkpoints
// taken before the loop grew once per solver pass can sit. The
// checkpoints the run itself takes must restore to the same solution
// through the snapshot codec.
func TestSolveCheckpointResume(t *testing.T) {
	g, part := testInstance(t, 41)
	opts := Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 77, MaxSamples: 1 << 12}

	var ckpts []savedCheckpoint
	withCp := opts
	withCp.Checkpoint = captureCheckpoints(t, &ckpts)
	baseline, err := Solve(g, part, maxr.UBG{}, withCp)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Rounds) < 2 {
		t.Fatalf("want at least 2 resume points, the run has %d rounds", len(baseline.Rounds))
	}
	if len(ckpts) == 0 {
		t.Fatal("the run took no checkpoint")
	}

	// The checkpoint callback must not perturb the solve at all.
	plain, err := Solve(g, part, maxr.UBG{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "checkpointing run", baseline, plain)

	resume := func(label string, pool *ric.Pool, doublings int) {
		t.Helper()
		resumed := opts
		resumed.Resume = &Checkpoint{Pool: pool, Doublings: doublings}
		sol, err := Solve(g, part, maxr.UBG{}, resumed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameSolution(t, label, baseline, sol)
		if want := baseline.Rounds[doublings:]; !slices.Equal(sol.Rounds, want) {
			t.Fatalf("%s: rounds %+v, want %+v", label, sol.Rounds, want)
		}
	}
	for i, r := range baseline.Rounds {
		pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.EnsureCtx(context.Background(), r.Samples); err != nil {
			t.Fatal(err)
		}
		resume(fmt.Sprintf("resume at round %d (skipped %v)", i, r.Skipped), pool, i)
	}
	for _, ck := range ckpts {
		pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.ReadInto(bytes.NewReader(ck.pool)); err != nil {
			t.Fatalf("restore checkpoint at round %d: %v", ck.doublings, err)
		}
		resume(fmt.Sprintf("resume from checkpoint at round %d", ck.doublings), pool, ck.doublings)
	}
}

// TestSolveGrowsOncePerSolverPass pins the growth schedule: Grow runs
// once per round that runs its solver, straight to that round's sample
// count, and Checkpoint fires once per growth at that round; a run
// resumed from an initial-size pool grows once, straight to its first
// solved round.
func TestSolveGrowsOncePerSolverPass(t *testing.T) {
	for _, tc := range []struct {
		name     string
		instance uint64
		solver   maxr.Solver
		opts     Options
	}{
		{"stop-condition", 61, maxr.MAF{Seed: 3}, Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 15}},
		{"sample-cap", 61, maxr.MAF{Seed: 3}, Options{K: 5, Eps: 0.2, Delta: 0.2, Seed: 3, MaxSamples: 1 << 9}},
		{"UBG/cap4096", 41, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 77, MaxSamples: 1 << 12}},
		// Two solved rounds: the first one's check does not certify.
		{"MAF/two-passes", 9, maxr.MAF{Seed: 5}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 16}},
		{"nu", 21, maxr.UBG{}, Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 5, MaxSamples: 1 << 15, NuGuided: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, part := testInstance(t, tc.instance)
			var grows []int
			var checkpoints []int
			opts := tc.opts
			opts.Grow = func(ctx context.Context, pool *ric.Pool, target int) error {
				grows = append(grows, target)
				return pool.EnsureCtx(ctx, target)
			}
			opts.Checkpoint = func(cp Checkpoint) error {
				if want := grows[len(grows)-1]; cp.Pool.NumSamples() != want {
					t.Errorf("checkpoint at round %d holds %d samples, the last growth was to %d", cp.Doublings, cp.Pool.NumSamples(), want)
				}
				checkpoints = append(checkpoints, cp.Doublings)
				return nil
			}
			sol, err := Solve(g, part, tc.solver, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wantGrows, wantCheckpoints []int
			for _, r := range sol.Rounds {
				if !r.Skipped {
					wantGrows = append(wantGrows, r.Samples)
					wantCheckpoints = append(wantCheckpoints, r.Doublings)
				}
			}
			if !slices.Equal(grows, wantGrows) {
				t.Fatalf("grew to %v, want the solved rounds' sizes %v (rounds %+v)", grows, wantGrows, sol.Rounds)
			}
			if !slices.Equal(checkpoints, wantCheckpoints) {
				t.Fatalf("checkpoints at rounds %v, want %v", checkpoints, wantCheckpoints)
			}

			pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.EnsureCtx(context.Background(), sol.Rounds[0].Samples); err != nil {
				t.Fatal(err)
			}
			grows, checkpoints = nil, nil
			opts.Resume = &Checkpoint{Pool: pool}
			resumed, err := Solve(g, part, tc.solver, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSolution(t, "resumed", sol, resumed)
			// The initial-size pool is round 0's, so only a skipped round 0
			// leaves a growth before the first solved round.
			wantResumed := wantGrows
			if !sol.Rounds[0].Skipped {
				wantResumed = wantGrows[1:]
			}
			if !slices.Equal(grows, wantResumed) || len(checkpoints) != len(grows) {
				t.Fatalf("resumed run grew to %v with %d checkpoints, want growths %v", grows, len(checkpoints), wantResumed)
			}
		})
	}
}

func assertSameSolution(t *testing.T, label string, want, got Solution) {
	t.Helper()
	if len(want.Seeds) != len(got.Seeds) {
		t.Fatalf("%s: %d seeds, want %d", label, len(got.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if want.Seeds[i] != got.Seeds[i] {
			t.Fatalf("%s: seeds %v, want %v", label, got.Seeds, want.Seeds)
		}
	}
	if got.CHat != want.CHat || got.EstimatedBenefit != want.EstimatedBenefit ||
		got.Samples != want.Samples || got.Doublings != want.Doublings ||
		got.Stopped != want.Stopped || got.Alpha != want.Alpha ||
		got.SandwichRatio != want.SandwichRatio {
		t.Fatalf("%s: solution drifted:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestSolveResumeValidation pins the guard rails: a resume checkpoint
// that could fork the sample sequence is rejected up front.
func TestSolveResumeValidation(t *testing.T) {
	g, part := testInstance(t, 41)
	opts := Options{K: 3, Eps: 0.3, Delta: 0.3, Seed: 77, MaxSamples: 1 << 12}

	goodPool := func(seed uint64) *ric.Pool {
		pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Generate(64); err != nil {
			t.Fatal(err)
		}
		return pool
	}

	cases := []struct {
		name    string
		resume  *Checkpoint
		wantSub string
	}{
		{"nil pool", &Checkpoint{}, "no pool"},
		{"empty pool", func() *Checkpoint {
			pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			return &Checkpoint{Pool: pool}
		}(), "empty"},
		{"seed mismatch", &Checkpoint{Pool: goodPool(78)}, "seed"},
		{"negative round", &Checkpoint{Pool: goodPool(77), Doublings: -1}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := opts
			o.Resume = tc.resume
			_, err := Solve(g, part, maxr.UBG{}, o)
			if err == nil {
				t.Fatal("invalid resume accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Checkpoint failures surface instead of silently losing durability.
	o := opts
	o.Checkpoint = func(Checkpoint) error { return fmt.Errorf("disk full") }
	if _, err := Solve(g, part, maxr.UBG{}, o); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("checkpoint error not surfaced: %v", err)
	}
}
