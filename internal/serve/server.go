// Package serve exposes the IMC solver as a small JSON-over-HTTP
// service, so the library can run as a long-lived sidecar instead of a
// batch CLI. Instances (generated graph + communities) are cached per
// configuration, which makes repeated solves against the same dataset
// cheap.
//
// Endpoints:
//
//	GET  /healthz    liveness probe
//	GET  /datasets   dataset registry with Table I statistics
//	POST /solve      select seeds {dataset, alg, k, ...} → {seeds, ...}
//	POST /estimate   score a given seed set on an instance
//	POST /v1/jobs    submit an async solve job (see jobs.go; requires a
//	                 configured job store)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"imc/internal/clock"
	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/gen"
	"imc/internal/job"
	"imc/internal/poolcache"
	"imc/internal/ric"
	"imc/internal/shard"
	"imc/internal/stats"
)

// Config tunes the server's robustness knobs.
type Config struct {
	// SolveTimeout is the per-request deadline applied to the heavy
	// endpoints (/solve, /estimate, /budgeted). Zero means the 60 s
	// default; a negative value disables the deadline (the request
	// context still propagates client disconnects).
	SolveTimeout time.Duration
	// MaxInflight bounds how many heavy requests run concurrently;
	// excess requests are shed with 429 + Retry-After. Zero or negative
	// means GOMAXPROCS.
	MaxInflight int
	// JobStore and JobPool, when both set, enable the async /v1/jobs
	// endpoints. The caller owns their lifecycle (Start, Shutdown,
	// Close); the server only submits, queries, and cancels.
	JobStore *job.Store
	JobPool  *job.Pool
	// PoolCache, when set, shares RIC pool snapshots across requests:
	// /solve and /budgeted adopt cached samples and store grown pools
	// back, /estimate reports the cached-pool ĉ_R alongside the Monte
	// Carlo score, and /metrics exposes the hit/miss/extend counters.
	// Nil disables caching (every request samples from scratch).
	PoolCache *poolcache.Cache
	// ShardCoordinator, when set, runs this server as the distributed
	// shard coordinator: /solve farms RIC generation out to the
	// registered workers (splicing the shards back byte-identically),
	// POST /shard/join accepts worker registrations, and /metrics gains
	// a "shard" section. With no registered workers every solve simply
	// generates locally, so enabling it is always safe.
	ShardCoordinator *shard.Coordinator
	// ShardWorker, when set, mounts the shard worker endpoints
	// (/shard/ping, /shard/pool) so this server can serve sample ranges
	// to a coordinator.
	ShardWorker *shard.Worker
}

// DefaultSolveTimeout is the per-request deadline when none is set.
const DefaultSolveTimeout = 60 * time.Second

// Server is the HTTP handler set. Create with New and mount via
// Handler.
type Server struct {
	logger       *slog.Logger  // immutable
	now          clock.Func    // immutable
	start        time.Time     // immutable
	solveTimeout time.Duration // immutable

	// inflight is the heavy-endpoint admission semaphore: a slot is
	// acquired non-blocking, so a full channel sheds load immediately
	// instead of queueing latency.
	inflight chan struct{} // immutable

	mu    sync.Mutex
	cache map[string]*expt.Instance // guarded by mu
	// maxCached bounds the instance cache (simple clear-all eviction:
	// instances are cheap to rebuild relative to their memory).
	maxCached int // immutable
	// building holds one in-flight build per cache key (singleflight):
	// concurrent misses wait on the first builder's done channel instead
	// of rebuilding the same instance N times.
	building map[string]*buildResult // guarded by mu
	// buildInstance is the instance factory; a test seam defaulting to
	// expt.BuildInstance (tests replace it before serving traffic).
	buildInstance func(expt.InstanceConfig) (*expt.Instance, error) // immutable

	// Request counters for /metrics, keyed by registered route (anything
	// else is bucketed under "other" so path scans can't grow the maps).
	// latency holds per-route request-duration histograms for the
	// compute-heavy routes, guarded by the same mutex.
	statsMu   sync.Mutex
	requests  map[string]int64            // guarded by statsMu
	errors4xx map[string]int64            // guarded by statsMu
	errors5xx map[string]int64            // guarded by statsMu
	latency   map[string]*stats.Histogram // guarded by statsMu

	// jobStore/jobPool are nil unless Config enabled the job endpoints.
	jobStore *job.Store // immutable
	jobPool  *job.Pool  // immutable

	// poolCache is the shared snapshot store; nil disables caching
	// (poolcache methods are nil-safe, so call sites stay unconditional).
	poolCache *poolcache.Cache // immutable

	// shardCoord/shardWorker are nil unless Config enabled the
	// distributed shard runtime roles.
	shardCoord  *shard.Coordinator // immutable
	shardWorker *shard.Worker      // immutable
}

// buildResult is one singleflight build slot. inst and err are written
// exactly once, before done is closed; the channel close publishes them
// to every waiter.
type buildResult struct {
	done chan struct{}
	inst *expt.Instance
	err  error
}

// NewWithOptions returns a server with explicit robustness settings.
// logger may be nil (slog.Default); now nil means the real wall clock,
// and tests inject a pinned clock to make uptime and latency fields
// reproducible.
func NewWithOptions(logger *slog.Logger, now clock.Func, cfg Config) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	now = clock.OrWall(now)
	if cfg.SolveTimeout == 0 {
		cfg.SolveTimeout = DefaultSolveTimeout
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		logger:        logger,
		now:           now,
		start:         now(),
		solveTimeout:  cfg.SolveTimeout,
		inflight:      make(chan struct{}, cfg.MaxInflight),
		cache:         make(map[string]*expt.Instance),
		maxCached:     16,
		building:      make(map[string]*buildResult),
		buildInstance: expt.BuildInstance,
		requests:      make(map[string]int64),
		errors4xx:     make(map[string]int64),
		errors5xx:     make(map[string]int64),
		latency:       make(map[string]*stats.Histogram, len(latencyRoutes)),
	}
	for route := range latencyRoutes {
		s.latency[route] = stats.NewLatencyHistogram()
	}
	if cfg.JobStore != nil && cfg.JobPool != nil {
		s.jobStore = cfg.JobStore
		s.jobPool = cfg.JobPool
	}
	s.poolCache = cfg.PoolCache
	s.shardCoord = cfg.ShardCoordinator
	s.shardWorker = cfg.ShardWorker
	return s
}

// routes is the set of registered paths; /metrics counters collapse
// everything else into "other" so a path scan cannot grow the maps.
var routes = map[string]bool{
	"/healthz":  true,
	"/datasets": true,
	"/solve":    true,
	"/estimate": true,
	"/budgeted": true,
	"/trace":    true,
	"/metrics":  true,
	"/v1/jobs":  true,
}

// latencyRoutes is the subset of routes whose request durations feed a
// latency histogram (the ones where tail latency is worth watching).
var latencyRoutes = map[string]bool{
	"/solve":    true,
	"/estimate": true,
	"/budgeted": true,
}

// metricsPath maps a request path to its counter key. All /v1/jobs/…
// subpaths share one key so per-job IDs cannot grow the counter maps.
func metricsPath(p string) string {
	if routes[p] {
		return p
	}
	if strings.HasPrefix(p, "/v1/jobs/") {
		return "/v1/jobs"
	}
	if strings.HasPrefix(p, "/shard/") {
		return "/shard"
	}
	return "other"
}

// Handler returns the routed http.Handler. The compute-heavy endpoints
// sit behind the in-flight semaphore.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("POST /solve", s.heavy(s.handleSolve))
	mux.HandleFunc("POST /estimate", s.heavy(s.handleEstimate))
	mux.HandleFunc("POST /budgeted", s.heavy(s.handleBudgeted))
	mux.HandleFunc("POST /trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.jobStore != nil {
		s.registerJobRoutes(mux)
	}
	if s.shardWorker != nil {
		s.shardWorker.Routes(mux)
	}
	if s.shardCoord != nil {
		mux.HandleFunc("POST "+shard.JoinPath, s.shardCoord.HandleJoin)
	}
	return s.logRequests(mux)
}

// heavy guards a compute-heavy handler with the in-flight semaphore:
// the slot is acquired without blocking, so when all slots are busy the
// request is shed immediately with 429 + Retry-After instead of
// queueing behind work the client may no longer want.
func (s *Server) heavy(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, kindOverloaded,
				errors.New("server at capacity, retry later"))
			return
		}
		next(w, r)
	}
}

// requestCtx derives the solver context for one heavy request: the
// request context (so client disconnects cancel the work) bounded by
// the configured per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.solveTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.solveTimeout)
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := s.now().Sub(start)
		key := metricsPath(r.URL.Path)
		s.statsMu.Lock()
		s.requests[key]++
		switch {
		case rec.status >= 500:
			s.errors5xx[key]++
		case rec.status >= 400:
			s.errors4xx[key]++
		}
		if h := s.latency[key]; h != nil {
			h.Observe(elapsed.Seconds())
		}
		s.statsMu.Unlock()
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "elapsed", elapsed)
	})
}

// Metrics is the /metrics reply. Errors is the combined per-route
// error count; Errors4xx/Errors5xx split client mistakes from server
// failures (including shed and timed-out requests).
type Metrics struct {
	UptimeSeconds   float64          `json:"uptimeSeconds"`
	Requests        map[string]int64 `json:"requests"`
	Errors          map[string]int64 `json:"errors"`
	Errors4xx       map[string]int64 `json:"errors4xx"`
	Errors5xx       map[string]int64 `json:"errors5xx"`
	CachedInstances int              `json:"cachedInstances"`
	// LatencySeconds holds per-route request-duration histograms for
	// the heavy endpoints, with p50/p95/p99 derived from the buckets.
	LatencySeconds map[string]stats.HistogramSnapshot `json:"latencySeconds"`
	// Jobs reports the async job subsystem; absent when jobs are not
	// configured.
	Jobs *JobMetrics `json:"jobs,omitempty"`
	// PoolCache reports the shared pool snapshot store (hits, misses,
	// extends, eviction pressure); absent when caching is disabled.
	PoolCache *poolcache.Stats `json:"poolCache,omitempty"`
	// Shard reports the distributed shard coordinator (worker registry,
	// dispatch/retry/reassignment counters, splice-latency histogram);
	// absent when the server is not a coordinator.
	Shard *shard.Metrics `json:"shard,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.statsMu.Lock()
	reqs := make(map[string]int64, len(s.requests))
	for k, v := range s.requests {
		reqs[k] = v
	}
	e4 := make(map[string]int64, len(s.errors4xx))
	combined := make(map[string]int64, len(s.errors4xx)+len(s.errors5xx))
	for k, v := range s.errors4xx {
		e4[k] = v
		combined[k] += v
	}
	e5 := make(map[string]int64, len(s.errors5xx))
	for k, v := range s.errors5xx {
		e5[k] = v
		combined[k] += v
	}
	lat := make(map[string]stats.HistogramSnapshot, len(s.latency))
	for k, h := range s.latency {
		lat[k] = h.Snapshot()
	}
	s.statsMu.Unlock()
	s.mu.Lock()
	cached := len(s.cache)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Metrics{
		UptimeSeconds:   s.now().Sub(s.start).Seconds(),
		Requests:        reqs,
		Errors:          combined,
		Errors4xx:       e4,
		Errors5xx:       e5,
		CachedInstances: cached,
		LatencySeconds:  lat,
		Jobs:            s.jobMetrics(),
		PoolCache:       s.poolCacheMetrics(),
		Shard:           s.shardMetrics(),
	})
}

// shardMetrics snapshots the coordinator for /metrics; nil when this
// server is not a coordinator, so the section is omitted entirely.
func (s *Server) shardMetrics() *shard.Metrics {
	if s.shardCoord == nil {
		return nil
	}
	m := s.shardCoord.Metrics()
	return &m
}

// poolCacheMetrics snapshots the pool cache for /metrics; nil when
// caching is disabled, so the field is omitted rather than all-zero.
func (s *Server) poolCacheMetrics() *poolcache.Stats {
	if s.poolCache == nil {
		return nil
	}
	st := s.poolCache.Stats()
	return &st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// datasetInfo is one /datasets row.
type datasetInfo struct {
	Name       string `json:"name"`
	Family     string `json:"family"`
	Directed   bool   `json:"directed"`
	PaperNodes int    `json:"paperNodes"`
	PaperEdges int    `json:"paperEdges"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	reg := gen.Registry()
	out := make([]datasetInfo, 0, len(reg))
	for _, name := range gen.Names() {
		d := reg[name]
		out = append(out, datasetInfo{
			Name:       d.Name,
			Family:     d.Family,
			Directed:   d.Directed,
			PaperNodes: d.PaperNodes,
			PaperEdges: d.PaperEdges,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// InstanceRequest selects/builds the experimental instance.
type InstanceRequest struct {
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Formation string  `json:"formation"` // "louvain" (default) | "random"
	SizeCap   int     `json:"sizeCap"`
	Bounded   bool    `json:"bounded"`
	Seed      uint64  `json:"seed"`
}

// SolveRequest is the /solve body.
type SolveRequest struct {
	InstanceRequest
	Alg        string  `json:"alg"` // UBG | MAF | MB | HBC | KS | IM
	K          int     `json:"k"`
	Eps        float64 `json:"eps"`
	Delta      float64 `json:"delta"`
	MaxSamples int     `json:"maxSamples"`
	BTMaxRoots int     `json:"btMaxRoots"`
}

// SolveResponse is the /solve reply.
type SolveResponse struct {
	Instance     string  `json:"instance"`
	Alg          string  `json:"alg"`
	Seeds        []int32 `json:"seeds"`
	Benefit      float64 `json:"benefit"`
	TotalBenefit float64 `json:"totalBenefit"`
	ElapsedMS    int64   `json:"elapsedMs"`
	// Stopped is the IMCAF stop reason ("stop-condition", "psi-cap" or
	// the best-effort "sample-cap"); Samples is the final pool size.
	// Both are omitted for the baselines and IM.
	Stopped string `json:"stopped,omitempty"`
	Samples int    `json:"samples,omitempty"`
}

// knownAlgs is the algorithm whitelist for /solve, validated up front
// so a typo stays a 400 instead of surfacing as a solver failure.
var knownAlgs = func() map[string]bool {
	m := make(map[string]bool, len(expt.AllAlgorithms)+2)
	for _, a := range expt.AllAlgorithms {
		m[a] = true
	}
	m[expt.AlgUBGLS] = true
	m[expt.AlgDD] = true
	return m
}()

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, kindValidation, fmt.Errorf("k must be ≥ 1, got %d", req.K))
		return
	}
	if req.MaxSamples > expt.MaxSamplesLimit {
		writeError(w, http.StatusBadRequest, kindValidation,
			fmt.Errorf("maxSamples %d exceeds the cap of %d", req.MaxSamples, expt.MaxSamplesLimit))
		return
	}
	alg := strings.ToUpper(req.Alg)
	if alg == "" {
		alg = expt.AlgUBG
	}
	if !knownAlgs[alg] {
		writeError(w, http.StatusBadRequest, kindValidation,
			fmt.Errorf("unknown algorithm %q (valid: %v)", alg, expt.AllAlgorithms))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	inst, err := s.instance(ctx, req.InstanceRequest)
	if err != nil {
		writeInstanceError(w, err)
		return
	}
	cfg := expt.RunConfig{
		Eps:        req.Eps,
		Delta:      req.Delta,
		Seed:       req.Seed,
		Runs:       1,
		MaxSamples: req.MaxSamples,
		BTMaxRoots: req.BTMaxRoots,
	}
	// One cache session per request (nil when no cache is configured):
	// its Grow adopts cached samples, fills the rest, and stores the
	// grown pool back. In coordinator mode the fill farms the missing
	// tail out to the shard workers. Both halves splice stream-indexed
	// samples, so the grown pool is byte-identical to local generation.
	// Cache trouble is never a solve failure.
	sess := s.poolCache.Begin(inst.G, inst.Part, diffusion.IC, req.Seed)
	var fill func(context.Context, *ric.Pool, int) error
	if s.shardCoord != nil {
		fill = s.shardCoord.GrowFunc(shardSpec(req.InstanceRequest))
	}
	cfg.Grow = func(ctx context.Context, pool *ric.Pool, target int) error {
		return sess.Grow(ctx, pool, target, fill)
	}
	res, err := expt.RunAlgCtx(ctx, inst, alg, req.K, cfg)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	seeds := make([]int32, len(res.Seeds))
	copy(seeds, res.Seeds)
	writeJSON(w, http.StatusOK, SolveResponse{
		Instance:     inst.Name,
		Alg:          res.Alg,
		Seeds:        seeds,
		Benefit:      res.Benefit,
		TotalBenefit: inst.Part.TotalBenefit(),
		ElapsedMS:    res.Runtime.Milliseconds(),
		Stopped:      res.Stopped.String(),
		Samples:      res.Samples,
	})
}

// EstimateRequest is the /estimate body.
type EstimateRequest struct {
	InstanceRequest
	Seeds      []int32 `json:"seeds"`
	Iterations int     `json:"iterations"`
}

// EstimateResponse is the /estimate reply. PoolBenefit/PoolSamples
// appear only when the pool cache holds a snapshot for the request's
// (instance, seed): the cached-pool estimate ĉ_R(seeds) comes for free
// and gives a second, sampling-independent read on the Monte Carlo
// score.
type EstimateResponse struct {
	Instance     string   `json:"instance"`
	Benefit      float64  `json:"benefit"`
	Spread       float64  `json:"spread"`
	TotalBenefit float64  `json:"totalBenefit"`
	PoolBenefit  *float64 `json:"poolBenefit,omitempty"`
	PoolSamples  int      `json:"poolSamples,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, http.StatusBadRequest, kindValidation, fmt.Errorf("seeds must be non-empty"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	inst, err := s.instance(ctx, req.InstanceRequest)
	if err != nil {
		writeInstanceError(w, err)
		return
	}
	if err := checkSeeds(req.Seeds, inst.G.NumNodes()); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	iters := req.Iterations
	if iters < 1 {
		iters = 2000
	}
	if iters > 1<<20 {
		iters = 1 << 20
	}
	seeds := make([]int32, len(req.Seeds))
	copy(seeds, req.Seeds)
	benefit, err := estimateBenefit(ctx, inst, seeds, iters, req.Seed)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	spread, err := estimateSpread(ctx, inst, seeds, iters, req.Seed)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	resp := EstimateResponse{
		Instance:     inst.Name,
		Benefit:      benefit,
		Spread:       spread,
		TotalBenefit: inst.Part.TotalBenefit(),
	}
	if pool := s.poolCache.Begin(inst.G, inst.Part, diffusion.IC, req.Seed).Cached(); pool != nil {
		pb := pool.CHat(seeds)
		resp.PoolBenefit = &pb
		resp.PoolSamples = pool.NumSamples()
	}
	writeJSON(w, http.StatusOK, resp)
}

// BudgetedRequest is the /budgeted body: cost-aware seed selection
// with per-node pricing unit·(outDegree+1) (unit ≤ 0 means uniform
// cost 1).
type BudgetedRequest struct {
	InstanceRequest
	Budget     float64 `json:"budget"`
	CostUnit   float64 `json:"costUnit"`
	NumSamples int     `json:"numSamples"`
}

// BudgetedResponse is the /budgeted reply.
type BudgetedResponse struct {
	Instance  string  `json:"instance"`
	Seeds     []int32 `json:"seeds"`
	Spent     float64 `json:"spent"`
	Benefit   float64 `json:"benefit"`
	ElapsedMS int64   `json:"elapsedMs"`
}

func (s *Server) handleBudgeted(w http.ResponseWriter, r *http.Request) {
	var req BudgetedRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	if req.Budget <= 0 {
		writeError(w, http.StatusBadRequest, kindValidation, fmt.Errorf("budget must be positive"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	inst, err := s.instance(ctx, req.InstanceRequest)
	if err != nil {
		writeInstanceError(w, err)
		return
	}
	samples := req.NumSamples
	if samples < 1 {
		samples = 4000
	}
	if samples > 1<<18 {
		samples = 1 << 18
	}
	start := s.now()
	sess := s.poolCache.Begin(inst.G, inst.Part, diffusion.IC, req.Seed)
	seeds, spent, benefit, err := solveBudgeted(ctx, inst, req.Budget, req.CostUnit, samples, req.Seed, sess)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	out := make([]int32, len(seeds))
	copy(out, seeds)
	writeJSON(w, http.StatusOK, BudgetedResponse{
		Instance:  inst.Name,
		Seeds:     out,
		Spent:     spent,
		Benefit:   benefit,
		ElapsedMS: s.now().Sub(start).Milliseconds(),
	})
}

// TraceRequest is the /trace body: simulate one cascade and report the
// round-by-round activations.
type TraceRequest struct {
	InstanceRequest
	Seeds []int32 `json:"seeds"`
}

// TraceRoundJSON is one round of a traced cascade.
type TraceRoundJSON struct {
	Round     int     `json:"round"`
	Activated []int32 `json:"activated"`
}

// TraceResponse is the /trace reply.
type TraceResponse struct {
	Instance string           `json:"instance"`
	Rounds   []TraceRoundJSON `json:"rounds"`
	Total    int              `json:"totalActivated"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req TraceRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, http.StatusBadRequest, kindValidation, fmt.Errorf("seeds must be non-empty"))
		return
	}
	inst, err := s.instance(r.Context(), req.InstanceRequest)
	if err != nil {
		writeInstanceError(w, err)
		return
	}
	if err := checkSeeds(req.Seeds, inst.G.NumNodes()); err != nil {
		writeError(w, http.StatusBadRequest, kindValidation, err)
		return
	}
	rounds := traceCascade(inst, req.Seeds, req.Seed)
	out := TraceResponse{Instance: inst.Name, Rounds: make([]TraceRoundJSON, 0, len(rounds))}
	for _, round := range rounds {
		activated := make([]int32, len(round.Activated))
		copy(activated, round.Activated)
		out.Total += len(activated)
		out.Rounds = append(out.Rounds, TraceRoundJSON{Round: round.Round, Activated: activated})
	}
	writeJSON(w, http.StatusOK, out)
}

// checkSeeds rejects a seed id outside the instance's [0, n) node range.
// The pool and the cascade simulators index per-node arrays by seed id,
// so an unchecked id either panics or is silently dropped.
func checkSeeds(seeds []int32, n int) error {
	for _, v := range seeds {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("seed %d out of range [0, %d)", v, n)
		}
	}
	return nil
}

// instance returns a cached or freshly built instance for the request.
// Concurrent misses on one key are deduplicated (singleflight): the
// first caller builds, the rest wait on its done channel — or bail when
// their own ctx is cancelled. The build itself is not ctx-bound: it is
// bounded work whose result every waiter (and the cache) can still use.
func (s *Server) instance(ctx context.Context, req InstanceRequest) (*expt.Instance, error) {
	if req.Dataset == "" {
		req.Dataset = "facebook"
	}
	if req.Scale == 0 {
		req.Scale = 0.1
	}
	formation := expt.Louvain
	if strings.EqualFold(req.Formation, "random") {
		formation = expt.RandomFormation
	}
	key := fmt.Sprintf("%s|%g|%v|%d|%v|%d", req.Dataset, req.Scale, formation, req.SizeCap, req.Bounded, req.Seed)
	s.mu.Lock()
	if inst, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return inst, nil
	}
	if b, ok := s.building[key]; ok {
		s.mu.Unlock()
		select {
		case <-b.done:
			return b.inst, b.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b := &buildResult{done: make(chan struct{})}
	s.building[key] = b
	s.mu.Unlock()

	inst, err := s.buildInstance(expt.InstanceConfig{
		Dataset:   req.Dataset,
		Scale:     req.Scale,
		Formation: formation,
		SizeCap:   req.SizeCap,
		Bounded:   req.Bounded,
		Seed:      req.Seed,
	})
	b.inst, b.err = inst, err

	s.mu.Lock()
	delete(s.building, key)
	if err == nil {
		// At capacity, evict a single entry to make room — never the key
		// being inserted. The old clear-all here threw away every cached
		// instance (and with it the identity of any pool-cache donors
		// pointing at them) just to admit one more.
		if _, exists := s.cache[key]; !exists && len(s.cache) >= s.maxCached {
			for k := range s.cache {
				if k == key {
					continue
				}
				delete(s.cache, k)
				break
			}
		}
		s.cache[key] = inst
	}
	s.mu.Unlock()
	close(b.done)
	return inst, err
}

func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error kinds reported in the JSON error body, so clients can branch on
// a stable token instead of parsing messages.
const (
	kindValidation = "validation"
	kindCanceled   = "canceled"
	kindTimeout    = "timeout"
	kindOverloaded = "overloaded"
	kindInternal   = "internal"
	kindNotFound   = "not-found"
	kindConflict   = "conflict"
)

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "kind": kind})
}

// writeSolverError classifies a post-validation failure: cancellation
// and deadline expiry are service-level conditions (503 — the request
// was valid, the server stopped the work), everything else is an
// internal failure (500). Validation errors never reach this path.
func writeSolverError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, kindTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, kindCanceled, err)
	default:
		writeError(w, http.StatusInternalServerError, kindInternal, err)
	}
}

// writeInstanceError classifies an instance-build failure: ctx errors
// are service-level (503), anything else is a bad instance spec
// (unknown dataset, invalid scale — the client's mistake, 400).
func writeInstanceError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeSolverError(w, err)
		return
	}
	writeError(w, http.StatusBadRequest, kindValidation, err)
}
