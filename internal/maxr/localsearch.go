package maxr

import (
	"context"

	"imc/internal/graph"
	"imc/internal/ric"
)

// LocalSearch refines a seed set by 1-swap hill climbing on ĉ_R:
// repeatedly replace one seed with one non-seed candidate when the
// swap strictly increases the number of influenced samples, until no
// improving swap exists or maxRounds passes complete.
//
// Greedy algorithms on non-submodular objectives can end in states a
// single exchange escapes (the paper's Fig. 2 phenomenon at set scale);
// the refiner recovers part of that loss at modest cost. The result
// never scores below the input. maxRounds ≤ 0 defaults to 2·k.
func LocalSearch(pool *ric.Pool, seeds []graph.NodeID, maxRounds int) ([]graph.NodeID, int) {
	current := append([]graph.NodeID(nil), seeds...)
	if len(current) == 0 || pool.NumSamples() == 0 {
		return current, pool.CoverageCount(current)
	}
	if maxRounds <= 0 {
		maxRounds = 2 * len(current)
	}
	cands := candidates(pool)
	inSet := make(map[graph.NodeID]int, len(current))
	for i, s := range current {
		inSet[s] = i
	}
	bestCov := pool.CoverageCount(current)
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i := 0; i < len(current) && !improved; i++ {
			// Build the state without seed i once, then try candidates.
			st := pool.NewState()
			for j, s := range current {
				if j != i {
					st.Add(s)
				}
			}
			for _, v := range cands {
				if _, dup := inSet[v]; dup {
					continue
				}
				if gain := coverageGain(pool, st, v); st.InfluencedCount()+gain > bestCov {
					delete(inSet, current[i])
					current[i] = v
					inSet[v] = i
					bestCov = st.InfluencedCount() + gain
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return current, bestCov
}

// Refined wraps any Solver with a LocalSearch post-pass.
type Refined struct {
	// Base is the solver whose output is refined.
	Base Solver
	// MaxRounds bounds the hill climb (0 = 2·k).
	MaxRounds int
}

var _ Solver = Refined{}

// Name implements Solver.
func (r Refined) Name() string { return r.Base.Name() + "+LS" }

// Guarantee implements Solver: local search never lowers coverage, so
// the base guarantee carries over.
func (r Refined) Guarantee(pool *ric.Pool, k int) float64 {
	return r.Base.Guarantee(pool, k)
}

// SolveCtx implements Solver: ctx reaches the base solve, and the hill
// climb is gated by one poll after it — the refinement never runs on a
// cancelled ctx.
//
//imc:longrun
func (r Refined) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	res, err := r.Base.SolveCtx(ctx, pool, k)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	seeds, _ := LocalSearch(pool, res.Seeds, r.MaxRounds)
	return finalize(pool, seeds), nil
}
