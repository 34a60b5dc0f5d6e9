package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/poolcache"
	"imc/internal/serve"
	"imc/internal/shard"
	"imc/internal/xrand"
)

// Solve settings shared by every workload: the paper's ε = δ = 0.2
// with bounded thresholds, scored the way expt.RunAlgCtx scores.
const (
	eps        = 0.2
	delta      = 0.2
	evalTMax   = 1 << 17 // expt.RunConfig's default EvalTMax
	btMaxRoots = 64
	// scoreSeedMix is the seed mix expt.RunAlgCtx applies to its
	// benefit-evaluation stream; TestSolveMatchesRunAlg pins it.
	scoreSeedMix = 0x0f0f0f0f0f0f0f0f
	// poolCacheBytes is imcserve's default -pool-cache-bytes.
	poolCacheBytes = 1 << 30
)

type kind int

const (
	localSolve kind = iota + 1
	serveZipf
	shardSolve
)

// workload is one row of the workload table. Every op count, instance
// and setting is a constant here; only -seed varies the inputs.
type workload struct {
	name string
	why  string
	op   string
	kind kind
	// block is the op count the timed window is a multiple of, so that
	// every run sees the same request mix.
	block int
	// inst, algs, k and maxSamples define the op of the solve kinds,
	// which run their one algorithm; serve-zipf's keys span algs.
	inst       expt.InstanceConfig
	algs       []string
	k          int
	maxSamples int
	// datasets are the instances behind serve-zipf's keys.
	datasets []expt.InstanceConfig
	// workers is the shard worker count.
	workers int
}

var workloads = []workload{
	{
		name: "solve-verify",
		why:  "dense graph where every solve certifies by stop condition, so Alg. 6 verification (core) dominates and MAXR selection barely shows",
		op:   "core.SolveCtx + core.EstimateCtx scoring with MAF on facebook@0.1, k=10",
		kind: localSolve, block: 1,
		inst: expt.InstanceConfig{Dataset: "facebook", Scale: 0.1, Bounded: true, Seed: 1},
		algs: []string{expt.AlgMAF}, k: 10, maxSamples: 1 << 17,
	},
	{
		name: "solve-select",
		why:  "sparse graph with ~1.1k small communities that hits the sample cap, so MAXR selection (BT) dominates and verification does not",
		op:   "the solve-verify op with MB (BT roots 64) on dblp@0.02, k=10, MaxSamples 8192",
		kind: localSolve, block: 1,
		inst: expt.InstanceConfig{Dataset: "dblp", Scale: 0.02, Bounded: true, Seed: 1},
		algs: []string{expt.AlgMB}, k: 10, maxSamples: 1 << 13,
	},
	{
		name: "serve-zipf",
		why:  "the only workload through HTTP, the instance cache and the pool cache: hot keys adopt cached samples, cold keys generate and save",
		op:   "POST /solve to an in-process server with a 1 GiB pool cache; 32 keys = {karate@1, facebook@0.05} x instance seeds 1-4 x {UBG, MAF} x k in {5, 10}, Zipf(1.1)-proportional",
		kind: serveZipf, block: zipfBlock,
		datasets: []expt.InstanceConfig{
			{Dataset: "karate", Scale: 1, Bounded: true},
			{Dataset: "facebook", Scale: 0.05, Bounded: true},
		},
		algs: []string{expt.AlgUBG, expt.AlgMAF},
	},
	{
		name: "shard-solve",
		why:  "the only workload whose samples cross the shard protocol: worker fetch and the coordinator's splice dominate",
		op:   "the solve-verify op with UBG and Options.Grow = Coordinator.GrowFunc over 2 in-process workers, facebook@0.05, k=10",
		kind: shardSolve, block: 1,
		inst: expt.InstanceConfig{Dataset: "facebook", Scale: 0.05, Bounded: true, Seed: 1},
		algs: []string{expt.AlgUBG}, k: 10, maxSamples: 1 << 17,
		workers: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what an op returns and what the output check compares.
type result struct {
	seeds   []graph.NodeID
	benefit float64
	total   float64
	// stopped and samples are zero for serve ops, whose response
	// carries neither.
	stopped      core.StopReason
	samples      int
	scoreSamples int
}

// matches is exact: the plain path must reproduce the seeds and the
// scored benefit bit for bit.
func (r result) matches(o result) bool {
	return slices.Equal(r.seeds, o.seeds) && r.benefit == o.benefit
}

// counters are layer counters read before and after the timed window.
type counters struct {
	pool  poolcache.Stats
	shard shard.Metrics
	rx    int64
	shed  int64
}

// harness is one set-up workload.
type harness struct {
	// op runs op i; tr is nil when untraced.
	op func(ctx context.Context, i int, tr *opTrace) (result, error)
	// plain re-solves op i through expt.RunAlgCtx with Runs=1 and no
	// cache, shard or wrapper: the reference the output check uses.
	plain    func(ctx context.Context, i int) (result, error)
	counters func() counters
	close    func()
}

// buildTimer times expt.BuildInstance calls, which workers may make
// concurrently.
type buildTimer struct {
	mu      sync.Mutex
	calls   int
	seconds float64
}

func (b *buildTimer) build(cfg expt.InstanceConfig) (*expt.Instance, error) {
	start := time.Now()
	inst, err := expt.BuildInstance(cfg)
	d := time.Since(start).Seconds()
	b.mu.Lock()
	b.calls++
	b.seconds += d
	b.mu.Unlock()
	return inst, err
}

func (b *buildTimer) snapshot() (int, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls, b.seconds
}

// opSeed is op i's solve and pool seed.
func opSeed(seed uint64, i int) uint64 { return seed<<20 | uint64(i) }

// discard is the logger of every in-process server.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

func (w workload) start(seed uint64, traced bool, builds *buildTimer) (*harness, error) {
	switch w.kind {
	case localSolve:
		return w.startLocal(seed, builds)
	case serveZipf:
		return w.startServe(seed, builds)
	case shardSolve:
		return w.startShard(seed, traced, builds)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %d", w.name, w.kind)
}

func (w workload) startLocal(seed uint64, builds *buildTimer) (*harness, error) {
	inst, err := builds.build(w.inst)
	if err != nil {
		return nil, err
	}
	return &harness{
		op: func(ctx context.Context, i int, tr *opTrace) (result, error) {
			return solve(ctx, inst, w.algs[0], w.k, w.maxSamples, opSeed(seed, i), nil, nil, tr)
		},
		plain: func(ctx context.Context, i int) (result, error) {
			return plainSolve(ctx, inst, w.algs[0], w.k, w.maxSamples, opSeed(seed, i))
		},
		counters: func() counters { return counters{} },
		close:    func() {},
	}, nil
}

// solve is the op of the solve and shard workloads: one IMCAF solve
// plus the final Dagum scoring, with the options expt.RunAlgCtx uses at
// Runs=1. grow nil means plain generation; splice, with a shard grow,
// reads the coordinator's cumulative splice seconds.
func solve(ctx context.Context, inst *expt.Instance, alg string, k, maxSamples int, seed uint64, grow core.GrowFunc, splice func() float64, tr *opTrace) (result, error) {
	var solver maxr.Solver
	switch alg {
	case expt.AlgUBG:
		solver = maxr.UBG{}
	case expt.AlgMAF:
		solver = maxr.MAF{Seed: seed}
	case expt.AlgMB:
		solver = maxr.MB{MAF: maxr.MAF{Seed: seed}, BT: maxr.BT{MaxRoots: btMaxRoots}}
	default:
		return result{}, fmt.Errorf("unknown algorithm %q", alg)
	}
	growSpan := "ric.grow"
	if grow != nil {
		growSpan = "shard.grow"
	}
	opts := core.Options{
		K: k, Eps: eps, Delta: delta, Seed: seed, MaxSamples: maxSamples,
		Grow: tr.wrapGrow(growSpan, grow, splice),
	}
	solver = tr.wrapSolver(solver)
	tr.beginSolve()
	sol, err := core.SolveCtx(ctx, inst.G, inst.Part, solver, opts)
	tr.endSolve()
	if err != nil {
		return result{}, err
	}
	id := tr.begin("core.score", rootOf(tr))
	est, err := core.EstimateCtx(ctx, inst.G, inst.Part, sol.Seeds, core.EstimateOptions{
		Eps: eps, Delta: delta, TMax: evalTMax, Seed: seed ^ scoreSeedMix,
	})
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	return result{
		seeds: sol.Seeds, benefit: est.Benefit, total: inst.Part.TotalBenefit(),
		stopped: sol.Stopped, samples: sol.Samples, scoreSamples: est.Samples,
	}, nil
}

func rootOf(tr *opTrace) int {
	if tr == nil {
		return 0
	}
	return tr.root
}

func plainSolve(ctx context.Context, inst *expt.Instance, alg string, k, maxSamples int, seed uint64) (result, error) {
	res, err := expt.RunAlgCtx(ctx, inst, alg, k, expt.RunConfig{
		Seed: seed, Runs: 1, MaxSamples: maxSamples, BTMaxRoots: btMaxRoots,
	})
	if err != nil {
		return result{}, err
	}
	return result{seeds: res.Seeds, benefit: res.Benefit, total: inst.Part.TotalBenefit()}, nil
}

// serveKey is one /solve request shape of serve-zipf.
type serveKey struct {
	inst expt.InstanceConfig
	alg  string
	k    int
}

// zipfBlock is the number of requests over which serve-zipf's mix is
// exactly Zipf(1.1)-proportional.
const zipfBlock = 50

// zipfKeys is serve-zipf's request sequence. The keys have a fixed
// popularity order that interleaves datasets and algorithms, then
// instance seeds 1-4 and k = 5, 10. Every block of zipfBlock timed
// requests holds key r in proportion to (r+1)^-1.1 (largest remainder),
// in an order -seed shuffles. Keys differ several-fold in cost, and a
// block of i.i.d. draws would change the cost mix, and with it every
// latency metric, from seed to seed; a fixed mix leaves only the order
// to the seed.
type zipfKeys struct {
	order []serveKey
	block []int // key indices of one block, in popularity order
	rng   *xrand.RNG
	seq   []int
}

func newZipfKeys(datasets []expt.InstanceConfig, algs []string, seed uint64) *zipfKeys {
	z := &zipfKeys{rng: xrand.New(seed)}
	for instSeed := uint64(1); instSeed <= 4; instSeed++ {
		for _, k := range []int{5, 10} {
			for _, alg := range algs {
				for _, ds := range datasets {
					ds.Seed = instSeed
					z.order = append(z.order, serveKey{inst: ds, alg: alg, k: k})
				}
			}
		}
	}
	weights := make([]float64, len(z.order))
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -1.1)
		sum += weights[r]
	}
	counts := make([]int, len(z.order))
	rest := make([]int, len(z.order))
	left := zipfBlock
	for r, w := range weights {
		counts[r] = int(zipfBlock * w / sum)
		left -= counts[r]
		rest[r] = r
	}
	frac := func(r int) float64 { return zipfBlock*weights[r]/sum - float64(counts[r]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, r := range rest[:left] {
		counts[r]++
	}
	for r, c := range counts {
		for ; c > 0; c-- {
			z.block = append(z.block, r)
		}
	}
	return z
}

// at returns op i's key. The warm-up ops request the two most popular
// keys, so set-up does the same work for every seed.
func (z *zipfKeys) at(i int) serveKey {
	if i < warmupOps {
		return z.order[i]
	}
	for len(z.seq) <= i-warmupOps {
		b := slices.Clone(z.block)
		z.rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		z.seq = append(z.seq, b...)
	}
	return z.order[z.seq[i-warmupOps]]
}

func (w workload) startServe(seed uint64, builds *buildTimer) (*harness, error) {
	dir, err := os.MkdirTemp("", "loadbench-poolcache-")
	if err != nil {
		return nil, err
	}
	cache, err := poolcache.Open(dir, poolcache.Options{MaxBytes: poolCacheBytes})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.NewWithOptions(discard, nil, serve.Config{MaxInflight: 1, PoolCache: cache})
	ts := httptest.NewServer(srv.Handler())
	transport := http.DefaultTransport.(*http.Transport).Clone()
	client := &http.Client{Transport: transport}
	keys := newZipfKeys(w.datasets, w.algs, seed)
	var shed atomic.Int64

	// The reference instances are built by the harness, on first use.
	var instMu sync.Mutex
	insts := make(map[expt.InstanceConfig]*expt.Instance)
	instance := func(cfg expt.InstanceConfig) (*expt.Instance, error) {
		instMu.Lock()
		defer instMu.Unlock()
		if inst, ok := insts[cfg]; ok {
			return inst, nil
		}
		inst, err := builds.build(cfg)
		if err == nil {
			insts[cfg] = inst
		}
		return inst, err
	}

	return &harness{
		op: func(ctx context.Context, i int, tr *opTrace) (result, error) {
			return solveRequest(ctx, client, ts.URL, keys.at(i), &shed, tr)
		},
		plain: func(ctx context.Context, i int) (result, error) {
			key := keys.at(i)
			inst, err := instance(key.inst)
			if err != nil {
				return result{}, err
			}
			return plainSolve(ctx, inst, key.alg, key.k, 0, key.inst.Seed)
		},
		counters: func() counters { return counters{pool: cache.Stats(), shed: shed.Load()} },
		close: func() {
			transport.CloseIdleConnections()
			ts.Close()
			os.RemoveAll(dir)
		},
	}, nil
}

// solveRequest is serve-zipf's op: one POST /solve, timed client-side.
func solveRequest(ctx context.Context, client *http.Client, url string, key serveKey, shed *atomic.Int64, tr *opTrace) (result, error) {
	body, err := json.Marshal(serve.SolveRequest{
		InstanceRequest: serve.InstanceRequest{
			Dataset: key.inst.Dataset, Scale: key.inst.Scale,
			Bounded: key.inst.Bounded, Seed: key.inst.Seed,
		},
		Alg: key.alg, K: key.k, Eps: eps, Delta: delta,
	})
	if err != nil {
		return result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin("serve.request", rootOf(tr))
	resp, err := client.Do(req)
	if err != nil {
		tr.end(id)
		return result{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		shed.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return result{}, fmt.Errorf("POST /solve: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var out serve.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return result{}, fmt.Errorf("decode /solve reply: %w", err)
	}
	tr.setAttr(id, "solver_s", float64(out.ElapsedMS)/1000)
	seeds := make([]graph.NodeID, len(out.Seeds))
	copy(seeds, out.Seeds)
	return result{seeds: seeds, benefit: out.Benefit, total: out.TotalBenefit}, nil
}

func (w workload) startShard(seed uint64, traced bool, builds *buildTimer) (*harness, error) {
	inst, err := builds.build(w.inst)
	if err != nil {
		return nil, err
	}
	spec := shard.InstanceSpec{
		Dataset: w.inst.Dataset, Scale: w.inst.Scale, Formation: "louvain",
		SizeCap: w.inst.SizeCap, Bounded: w.inst.Bounded, Seed: w.inst.Seed,
	}
	// Workers rebuild the instance from its spec the way
	// serve.ShardInstanceBuilder does, through the timed builder.
	build := func(s shard.InstanceSpec) (*graph.Graph, *community.Partition, error) {
		inst, err := builds.build(expt.InstanceConfig{
			Dataset: s.Dataset, Scale: s.Scale, Formation: expt.Louvain,
			SizeCap: s.SizeCap, Bounded: s.Bounded, Seed: s.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return inst.G, inst.Part, nil
	}
	var (
		servers []*httptest.Server
		ws      []*shard.Worker
	)
	closeAll := func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, wk := range ws {
			wk.Close()
		}
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rx atomic.Int64
	var rt http.RoundTripper = transport
	if traced {
		rt = countingTransport{base: transport, rx: &rx}
	}
	coord := shard.NewCoordinator(shard.CoordinatorConfig{
		Client: &http.Client{Transport: rt, Timeout: 5 * time.Minute},
		Logger: discard,
	})
	for n := 0; n < w.workers; n++ {
		wk, err := shard.NewWorker(shard.WorkerConfig{Build: build, Logger: discard})
		if err != nil {
			closeAll()
			return nil, err
		}
		mux := http.NewServeMux()
		wk.Routes(mux)
		ts := httptest.NewServer(mux)
		ws, servers = append(ws, wk), append(servers, ts)
		coord.Register(ts.URL)
	}
	grow := coord.GrowFunc(spec)
	splice := func() float64 { return coord.Metrics().MergeLatencySeconds.Sum }
	return &harness{
		op: func(ctx context.Context, i int, tr *opTrace) (result, error) {
			return solve(ctx, inst, w.algs[0], w.k, w.maxSamples, opSeed(seed, i), grow, splice, tr)
		},
		plain: func(ctx context.Context, i int) (result, error) {
			return plainSolve(ctx, inst, w.algs[0], w.k, w.maxSamples, opSeed(seed, i))
		},
		counters: func() counters { return counters{shard: coord.Metrics(), rx: rx.Load()} },
		close: func() {
			closeAll()
			transport.CloseIdleConnections()
		},
	}, nil
}
