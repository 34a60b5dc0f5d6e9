// Package imc is a library for Influence Maximization at the Community
// level (IMC), reproducing "Influence Maximization at Community Level:
// A New Challenge with Non-submodularity" (Nguyen, Zhou, Thai — ICDCS
// 2019).
//
// Given a weighted social graph under the Independent Cascade model and
// a set of disjoint communities — each with an activation threshold h
// and a benefit b — IMC asks for k seed users maximizing the expected
// benefit of communities that end up with at least h activated members.
// Unlike classic influence maximization the objective is neither
// submodular nor supermodular, and it is inapproximable within
// O(r^{1/2(loglog r)^c}) under the exponential time hypothesis.
//
// The package exposes the paper's full pipeline:
//
//   - Graph construction (NewBuilder, ReadEdgeList, ApplyWeights) and
//     synthetic generators (BuildDataset, BarabasiAlbert, ...).
//   - Community formation: Louvain detection, random partitioning, the
//     size-cap splitting rule, and threshold/benefit policies.
//   - RIC sampling (Reverse Influenceable Community) — the paper's
//     estimator for community benefit (NewPool).
//   - Four MAXR solvers: UBG (sandwich upper-bound greedy), MAF
//     (most-appearance-first), BT (bounded-threshold) and MB (MAF∨BT,
//     tight to the inapproximability bound).
//   - The IMCAF framework (Solve), wrapping any solver into an
//     α(1−ε)-approximation with probability ≥ 1−δ via adaptive
//     stop-and-stare sampling and Dagum stopping-rule verification.
//   - Baselines (HBC, KS, classic IM) and forward Monte-Carlo
//     evaluation (EstimateBenefit) for end-to-end validation.
//
// Quick start:
//
//	g, _ := imc.BuildDataset("facebook", 1.0, 42)
//	g = imc.ApplyWeights(g, imc.WeightedCascade, 0, 0)
//	part, _ := imc.Louvain(g, 42)
//	part, _ = part.SplitBySize(8, 42)
//	part.SetBoundedThresholds(2)
//	part.SetPopulationBenefits()
//	sol, _ := imc.Solve(g, part, imc.NewUBG(), imc.Options{K: 10, Eps: 0.2, Delta: 0.2})
//	fmt.Println(sol.Seeds, sol.CHat)
package imc

import (
	"context"
	"io"

	"imc/internal/baselines"
	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
	"imc/internal/ris"
	"imc/internal/xrand"
)

// Graph and related types.
type (
	// Graph is an immutable directed weighted social graph in CSR form.
	Graph = graph.Graph
	// NodeID identifies a node in [0, NumNodes()).
	NodeID = graph.NodeID
	// Edge is one weighted directed edge.
	Edge = graph.Edge
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// WeightScheme selects how edge probabilities are assigned.
	WeightScheme = graph.WeightScheme
	// GraphStats summarizes graph shape.
	GraphStats = graph.Stats
)

// Weight schemes.
const (
	// WeightedCascade sets w(u,v) = 1/d_in(v) (the paper's setting).
	WeightedCascade = graph.WeightedCascade
	// ConstantWeight sets every edge to one probability.
	ConstantWeight = graph.ConstantWeight
	// Trivalency draws weights from {0.1, 0.01, 0.001}.
	Trivalency = graph.Trivalency
)

// Community types.
type (
	// Partition is a set of disjoint communities with thresholds and
	// benefits.
	Partition = community.Partition
	// Community is one disjoint user set.
	Community = community.Community
)

// Diffusion types.
type (
	// Model selects the propagation model (IC or LT).
	Model = diffusion.Model
	// MCOptions configures forward Monte-Carlo estimation.
	MCOptions = diffusion.MCOptions
)

// Propagation models.
const (
	// IC is the Independent Cascade model.
	IC = diffusion.IC
	// LT is the Linear Threshold model.
	LT = diffusion.LT
)

// Solver and framework types.
type (
	// Solver is a MAXR approximation algorithm pluggable into Solve. A
	// custom solver implements Name, Guarantee and SolveCtx.
	Solver = maxr.Solver
	// SolverResult is a solved MAXR instance.
	SolverResult = maxr.Result
	// Pool is a collection of RIC samples with evaluators.
	Pool = ric.Pool
	// PoolOptions configures RIC pool construction.
	PoolOptions = ric.PoolOptions
	// Options configures an IMCAF run.
	Options = core.Options
	// Solution is an IMCAF outcome.
	Solution = core.Solution
	// StopReason explains IMCAF termination.
	StopReason = core.StopReason
	// EstimateOptions configures the Estimate procedure.
	EstimateOptions = core.EstimateOptions
	// EstimateResult is an Estimate outcome.
	EstimateResult = core.EstimateResult
	// RISOptions configures the classic IM baseline solver.
	RISOptions = ris.Options
)

// Graph construction.

// NewBuilder returns a graph builder for n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a "u v [w]" edge list (lines starting with '#' or
// '%' are comments).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// WriteEdgeList emits a graph as "u v w" lines.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteBinaryGraph serializes a graph in the compact binary format
// (magic "IMCG"), roughly 3× smaller and 10× faster to load than the
// text edge list.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadBinaryGraph loads a graph written by WriteBinaryGraph.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WeaklyConnectedComponentsOf labels each node with its weak-component
// ID and returns the labels and the component count.
func WeaklyConnectedComponentsOf(g *Graph) ([]int32, int) {
	return graph.WeaklyConnectedComponents(g)
}

// StronglyConnectedComponentsOf labels each node with its SCC ID
// (Tarjan) and returns the labels and the SCC count.
func StronglyConnectedComponentsOf(g *Graph) ([]int32, int) {
	return graph.StronglyConnectedComponents(g)
}

// LargestComponentSize returns the size of the biggest component for a
// labeling from either components function.
func LargestComponentSize(label []int32, count int) int {
	return graph.LargestComponentSize(label, count)
}

// KCore computes each node's core number in the undirected projection
// (Matula–Beck peeling).
func KCore(g *Graph) []int32 { return graph.KCore(g) }

// NMI scores the agreement of two partitions by normalized mutual
// information (1 = identical up to relabeling).
func NMI(a, b *Partition) float64 { return community.NMI(a, b) }

// RMAT generates a stochastic Kronecker (R-MAT) graph with 2^levels
// nodes and ≈m edges from initiator probabilities (a, b, c, d).
func RMAT(levels, m int, a, b, c, d float64, seed uint64) (*Graph, error) {
	return gen.RMAT(levels, m, a, b, c, d, seed)
}

// ApplyWeights returns a copy of g with edge probabilities reassigned
// by the scheme (p is used by ConstantWeight, seed by Trivalency).
func ApplyWeights(g *Graph, scheme WeightScheme, p float64, seed uint64) *Graph {
	return graph.ApplyWeights(g, scheme, p, seed)
}

// Synthetic generators (see internal/gen for the full catalog).

// BuildDataset generates a named synthetic analog of one of the
// paper's SNAP datasets ("facebook", "wikivote", "epinions", "dblp",
// "pokec") at the given scale in (0, 1].
func BuildDataset(name string, scale float64, seed uint64) (*Graph, error) {
	return gen.BuildDataset(name, scale, seed)
}

// DatasetNames lists the dataset registry keys in Table I order.
func DatasetNames() []string { return gen.Names() }

// BarabasiAlbert generates a preferential-attachment graph.
func BarabasiAlbert(n, m int, seed uint64) (*Graph, error) { return gen.BarabasiAlbert(n, m, seed) }

// WattsStrogatz generates a small-world graph.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// SBM generates a planted-partition graph with the given block count.
func SBM(n, blocks int, inDeg, outDeg float64, seed uint64) (*Graph, error) {
	return gen.SBM(n, blocks, inDeg, outDeg, seed)
}

// ErdosRenyi generates a uniform random directed graph.
func ErdosRenyi(n int, avgOutDeg float64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, avgOutDeg, seed)
}

// Community formation.

// NewPartition builds a partition over n nodes from explicit member
// sets.
func NewPartition(n int, memberSets [][]NodeID) (*Partition, error) {
	return community.New(n, memberSets)
}

// Louvain detects communities by modularity maximization.
func Louvain(g *Graph, seed uint64) (*Partition, error) { return community.Louvain(g, seed) }

// RandomCommunities partitions n nodes uniformly into r communities.
func RandomCommunities(n, r int, seed uint64) (*Partition, error) {
	return community.Random(n, r, seed)
}

// LabelPropagation detects communities by label propagation — a
// near-linear alternative to Louvain for very large graphs.
func LabelPropagation(g *Graph, maxRounds int, seed uint64) (*Partition, error) {
	return community.LabelPropagation(g, maxRounds, seed)
}

// Modularity computes the undirected-projection modularity of a
// partition.
func Modularity(g *Graph, p *Partition) float64 { return community.Modularity(g, p) }

// WritePartitionJSON serializes a partition (members, thresholds,
// benefits) as JSON.
func WritePartitionJSON(w io.Writer, p *Partition) error { return community.WriteJSON(w, p) }

// ReadPartitionJSON loads a partition written by WritePartitionJSON.
func ReadPartitionJSON(r io.Reader) (*Partition, error) { return community.ReadJSON(r) }

// RIC sampling.

// NewPool creates an empty RIC sample pool over (g, part).
func NewPool(g *Graph, part *Partition, opts PoolOptions) (*Pool, error) {
	return ric.NewPool(g, part, opts)
}

// MAXR solvers.

// NewUBG returns the Upper-Bound Greedy (sandwich) solver.
func NewUBG() Solver { return maxr.UBG{} }

// NewMAF returns the Most-Appearance-First solver.
func NewMAF(seed uint64) Solver { return maxr.MAF{Seed: seed} }

// NewBT returns the bounded-threshold solver; maxRoots caps the root
// scan (0 = all), depth is the threshold bound d (0 = 2). The scan
// solves only the roots whose touch count can still beat the best
// score found, so the full scan costs a handful of subproblems in
// practice, not one per node.
func NewBT(maxRoots, depth int) Solver { return maxr.BT{MaxRoots: maxRoots, Depth: depth} }

// NewMB returns the combined MAF∨BT solver with Θ(√((1−1/e)/r))
// guarantee for thresholds ≤ 2; maxRoots caps its BT half's root scan
// as in NewBT (0 = all, which the touch-count prune keeps cheap).
func NewMB(seed uint64, maxRoots int) Solver {
	return maxr.MB{MAF: maxr.MAF{Seed: seed}, BT: maxr.BT{MaxRoots: maxRoots}}
}

// CostFunc prices a node for the budgeted (cost-aware) variant.
type CostFunc = maxr.CostFunc

// UniformCost prices every node at 1.
func UniformCost(u NodeID) float64 { return maxr.UniformCost(u) }

// DegreeCost prices nodes proportionally to out-degree plus one.
func DegreeCost(g *Graph, unit float64) CostFunc { return maxr.DegreeCost(g, unit) }

// SolveBudgeted picks a seed set of total cost ≤ budget maximizing the
// estimated community benefit over a fresh pool of numSamples RIC
// samples — the cost-aware extension of IMC.
func SolveBudgeted(g *Graph, part *Partition, cost CostFunc, budget float64, numSamples int, opts PoolOptions) (SolverResult, error) {
	pool, err := ric.NewPool(g, part, opts)
	if err != nil {
		return SolverResult{}, err
	}
	if numSamples < 1 {
		numSamples = 1
	}
	if err := pool.GenerateCtx(context.Background(), numSamples); err != nil {
		return SolverResult{}, err
	}
	return maxr.SolveBudgeted(pool, cost, budget)
}

// IMCAF framework.

// Solve runs the IMC Algorithmic Framework with the given MAXR solver.
func Solve(g *Graph, part *Partition, solver Solver, opts Options) (Solution, error) {
	return core.SolveCtx(context.Background(), g, part, solver, opts)
}

// SolveFixed runs a solver against a fixed-size RIC pool.
func SolveFixed(g *Graph, part *Partition, solver Solver, k, numSamples int, opts Options) (Solution, error) {
	return core.SolveFixedCtx(context.Background(), g, part, solver, k, numSamples, opts)
}

// Estimate runs the paper's Alg. 6 verification estimator for c(S).
func Estimate(g *Graph, part *Partition, seeds []NodeID, opts EstimateOptions) (EstimateResult, error) {
	return core.EstimateCtx(context.Background(), g, part, seeds, opts)
}

// Forward Monte-Carlo evaluation.

// EstimateBenefit Monte-Carlo-estimates c(S) with forward cascades.
func EstimateBenefit(g *Graph, part *Partition, seeds []NodeID, opts MCOptions) (float64, error) {
	return diffusion.EstimateBenefitCtx(context.Background(), g, part, seeds, opts)
}

// EstimateSpread Monte-Carlo-estimates the expected activation count.
func EstimateSpread(g *Graph, seeds []NodeID, opts MCOptions) (float64, error) {
	return diffusion.EstimateSpreadCtx(context.Background(), g, seeds, opts)
}

// TraceRound is one round of a traced cascade.
type TraceRound = diffusion.TraceRound

// TraceCascade simulates one IC cascade and reports the nodes
// activated in each discrete round.
func TraceCascade(g *Graph, seeds []NodeID, seed uint64) []TraceRound {
	return diffusion.Trace(g, seeds, xrand.New(seed))
}

// Baselines.

// HBC selects seeds by highest beneficial connection.
func HBC(g *Graph, part *Partition, k int) ([]NodeID, error) { return baselines.HBC(g, part, k) }

// KS selects seeds by an exact knapsack over communities.
func KS(g *Graph, part *Partition, k int) ([]NodeID, error) { return baselines.KS(g, part, k) }

// IM selects seeds by classic influence maximization (RIS). The
// partition is not consulted: IM ignores community structure.
func IM(g *Graph, _ *Partition, k int, opts RISOptions) ([]NodeID, error) {
	opts.K = k
	sol, err := ris.SolveCtx(context.Background(), g, opts)
	return sol.Seeds, err
}

// SolveIM runs the SSA-style IM solver directly, returning spread
// diagnostics alongside the seeds.
func SolveIM(g *Graph, opts RISOptions) (ris.Solution, error) {
	return ris.SolveCtx(context.Background(), g, opts)
}

// SolveIMM runs the IMM influence-maximization algorithm (Tang et al.
// 2014), the other state-of-the-art IM framework the paper cites.
func SolveIMM(g *Graph, opts RISOptions) (ris.Solution, error) {
	return ris.SolveIMMCtx(context.Background(), g, opts)
}

// DegreeDiscount selects seeds by the classic degree-discount IC
// heuristic with propagation probability p.
func DegreeDiscount(g *Graph, k int, p float64) ([]NodeID, error) {
	return baselines.DegreeDiscount(g, k, p)
}
