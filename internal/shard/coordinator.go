package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"imc/internal/clock"
	"imc/internal/ric"
	"imc/internal/stats"
)

// maxPoolFrame bounds one worker's pool response; generous next to
// maxRangeWidth but finite, so a corrupt length prefix fails fast.
const maxPoolFrame = 8 << 30

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Client performs worker RPCs; nil uses a dedicated client with a
	// 5-minute timeout (generation-sized, not request-sized).
	Client *http.Client
	// MaxAttempts bounds how many workers one range is tried on before
	// the coordinator generates it locally. Zero means 3.
	MaxAttempts int
	// Logger may be nil.
	Logger *slog.Logger
	// Now is the clock (nil = wall); tests pin it for stable latency
	// histograms.
	Now clock.Func
}

// Coordinator owns the worker registry and runs distributed pool
// generation: it splits a sample interval across the live workers,
// gathers the per-range IMCS exports, and splices them — in range
// order, so the result is byte-identical to local generation. Worker
// death degrades, never corrupts: a failed range is retried on other
// workers a bounded number of times and finally regenerated locally.
//
// A nil *Coordinator is valid: Grow degrades to plain local generation,
// so call sites wire it unconditionally.
type Coordinator struct {
	client      *http.Client //imc:guardedby immutable
	maxAttempts int          //imc:guardedby immutable
	logger      *slog.Logger //imc:guardedby immutable
	now         clock.Func   //imc:guardedby immutable

	mu      sync.Mutex
	workers map[string]*workerInfo //imc:guardedby mu
	// Counters for the /metrics shard section.
	rangesDispatched int64            //imc:guardedby mu
	retries          int64            //imc:guardedby mu
	reassignments    int64            //imc:guardedby mu
	localFallbacks   int64            //imc:guardedby mu
	merges           int64            //imc:guardedby mu
	mergeLatency     *stats.Histogram //imc:guardedby mu
}

// workerInfo is one registered worker's health record.
type workerInfo struct {
	alive    bool
	failures int64
}

// NewCoordinator builds a Coordinator with an empty registry.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Coordinator{
		client:       cfg.Client,
		maxAttempts:  cfg.MaxAttempts,
		logger:       cfg.Logger,
		now:          clock.OrWall(cfg.Now),
		workers:      make(map[string]*workerInfo),
		mergeLatency: stats.NewLatencyHistogram(),
	}
}

// Register adds (or revives) a worker by base URL. Re-registration is
// how a restarted worker returns to rotation after being marked dead.
func (c *Coordinator) Register(addr string) {
	addr = strings.TrimRight(addr, "/")
	if addr == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.alive = true
		return
	}
	c.workers[addr] = &workerInfo{alive: true}
}

// HandleJoin is the POST /shard/join handler: workers self-register by
// advertising the base URL the coordinator should dial back.
func (c *Coordinator) HandleJoin(rw http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeShardJSON(r, &req); err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	if !strings.HasPrefix(req.Addr, "http://") && !strings.HasPrefix(req.Addr, "https://") {
		writeShardError(rw, http.StatusBadRequest,
			fmt.Errorf("shard: join addr %q is not an http(s) base URL", req.Addr))
		return
	}
	c.Register(req.Addr)
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	writeShardJSON(rw, http.StatusOK, JoinResponse{Status: "ok", Workers: n})
}

// alive returns the live worker addresses in sorted order, so range
// assignment is deterministic for a given registry state.
func (c *Coordinator) alive() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for addr, w := range c.workers {
		if w.alive {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// noteFailure marks a worker dead and counts the failed attempt.
func (c *Coordinator) noteFailure(addr string, reassigned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.alive = false
		w.failures++
	}
	c.retries++
	if reassigned {
		c.reassignments++
	}
}

// Grow is the distributed counterpart of ric.Pool.EnsureCtx, matching
// the core.Options.Grow signature once bound to a spec (GrowFunc): it
// brings pool up to target samples by farming the missing tail out to
// the registered workers and splicing their exports back in range
// order. Because sample i always comes from stream i, the grown pool is
// byte-identical to local generation whatever the worker count — and
// with no live workers (or a nil coordinator) it simply generates
// locally.
//
//imc:longrun
func (c *Coordinator) Grow(ctx context.Context, spec InstanceSpec, pool *ric.Pool, target int) error {
	if c == nil {
		return pool.EnsureCtx(ctx, target)
	}
	if pool.Offset() != 0 {
		return fmt.Errorf("shard: Grow requires an offset-0 pool, got offset %d", pool.Offset())
	}
	cur := pool.NumSamples()
	if target <= cur {
		return nil
	}
	workers := c.alive()
	if len(workers) == 0 {
		c.mu.Lock()
		c.localFallbacks++
		c.mu.Unlock()
		return pool.EnsureCtx(ctx, target)
	}
	ranges := SplitRanges(cur, target, len(workers))

	// Each range is fetched and decoded in its own goroutine, as soon as
	// its payload arrives; only the fold below waits for the ranges
	// before it. Grow waits for every goroutine before it returns, and
	// cancels the fetches still running when it stops early.
	var wg sync.WaitGroup
	defer wg.Wait()
	fetchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	arrived := make([]chan stagedRange, len(ranges))
	for i := range arrived {
		arrived[i] = make(chan stagedRange, 1)
	}
	for i, r := range ranges {
		wg.Add(1)
		go func(r Range, first string, out chan<- stagedRange) {
			defer wg.Done()
			out <- c.stageRange(fetchCtx, spec, pool, r, first)
		}(r, workers[i%len(workers)], arrived[i])
	}

	// Fold in range order — FoldRange enforces the gap-free contract —
	// regenerating any range no worker delivered locally. The merge
	// latency histogram times the coordinator's own work here: folds and
	// local regeneration, not the waits for ranges still in flight.
	var spliced time.Duration
	for i, r := range ranges {
		got := <-arrived[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		start := c.now()
		if got.staged == nil && got.err == nil {
			c.mu.Lock()
			c.localFallbacks++
			c.mu.Unlock()
			if err := pool.EnsureCtx(ctx, r.Hi); err != nil {
				return err
			}
			spliced += c.now().Sub(start)
			continue
		}
		if got.err == nil {
			got.err = pool.FoldRange(got.staged)
		}
		if got.err != nil {
			// A range that does not decode — corrupt, or not exactly
			// [r.Lo, r.Hi) — was never folded, so the pool is a valid
			// prefix: abandon the distributed path and complete it
			// locally.
			c.logger.Warn("shard import failed, completing locally", "range", r, "err", got.err)
			c.mu.Lock()
			c.localFallbacks++
			c.mu.Unlock()
			cancel()
			return pool.EnsureCtx(ctx, target)
		}
		spliced += c.now().Sub(start)
	}
	c.mu.Lock()
	c.merges++
	c.mergeLatency.Observe(spliced.Seconds())
	c.mu.Unlock()
	return nil
}

// GrowFunc binds Grow to one instance spec, yielding the
// core.Options.Grow-shaped closure the solvers accept.
func (c *Coordinator) GrowFunc(spec InstanceSpec) func(context.Context, *ric.Pool, int) error {
	return func(ctx context.Context, pool *ric.Pool, target int) error {
		return c.Grow(ctx, spec, pool, target)
	}
}

// stagedRange is one range's outcome: its decoded samples, or the
// decode error of the payload a worker sent, or neither when no worker
// delivered a payload (the caller then regenerates the range locally).
type stagedRange struct {
	staged *ric.StagedRange
	err    error
}

// stageRange fetches one range's IMCS export and decodes it against
// the pool's identity, without touching the pool's samples.
func (c *Coordinator) stageRange(ctx context.Context, spec InstanceSpec, pool *ric.Pool, r Range, first string) stagedRange {
	data := c.fetchRange(ctx, spec, pool.Seed(), r, first)
	if data == nil {
		return stagedRange{}
	}
	staged, err := pool.StageRange(bytes.NewReader(data), r.Lo, r.Hi)
	return stagedRange{staged: staged, err: err}
}

// fetchRange tries one range on up to maxAttempts workers, preferring
// first, then any other live worker not yet tried for this range.
func (c *Coordinator) fetchRange(ctx context.Context, spec InstanceSpec, poolSeed uint64, r Range, first string) []byte {
	tried := make(map[string]bool)
	addr := first
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if addr == "" {
			return nil
		}
		tried[addr] = true
		c.mu.Lock()
		c.rangesDispatched++
		c.mu.Unlock()
		data, err := c.postPool(ctx, addr, GenRequest{Instance: spec, PoolSeed: poolSeed, Lo: r.Lo, Hi: r.Hi})
		if err == nil {
			return data
		}
		if ctx.Err() != nil {
			return nil
		}
		c.logger.Warn("shard range fetch failed", "worker", addr, "range", r, "err", err)
		c.noteFailure(addr, attempt > 0)
		addr = c.pickWorker(tried)
	}
	return nil
}

// pickWorker returns a live worker not in tried, or "".
func (c *Coordinator) pickWorker(tried map[string]bool) string {
	for _, addr := range c.alive() {
		if !tried[addr] {
			return addr
		}
	}
	return ""
}

// postPool performs one /shard/pool RPC and returns the verified frame
// payload (the raw IMCS export).
func (c *Coordinator) postPool(ctx context.Context, addr string, req GenRequest) ([]byte, error) {
	resp, err := c.postJSON(ctx, addr+PoolPath, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeShardHTTPError(resp)
	}
	return ReadFrame(resp.Body, maxPoolFrame)
}

func (c *Coordinator) postJSON(ctx context.Context, url string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.client.Do(req)
}

// decodeShardHTTPError turns a non-200 worker reply into an error,
// surfacing the worker's JSON error message when present.
func decodeShardHTTPError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body)
	if body.Error != "" {
		return fmt.Errorf("shard: worker %s: %s", resp.Status, body.Error)
	}
	return fmt.Errorf("shard: worker returned %s", resp.Status)
}

// Metrics is the /metrics "shard" section: registry health, dispatch
// and failure counters, and the splice-phase latency histogram.
type Metrics struct {
	WorkersRegistered   int                     `json:"workersRegistered"`
	WorkersAlive        int                     `json:"workersAlive"`
	RangesDispatched    int64                   `json:"rangesDispatched"`
	Retries             int64                   `json:"retries"`
	Reassignments       int64                   `json:"reassignments"`
	LocalFallbacks      int64                   `json:"localFallbacks"`
	Merges              int64                   `json:"merges"`
	MergeLatencySeconds stats.HistogramSnapshot `json:"mergeLatencySeconds"`
}

// Metrics snapshots the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	for _, w := range c.workers {
		if w.alive {
			alive++
		}
	}
	return Metrics{
		WorkersRegistered:   len(c.workers),
		WorkersAlive:        alive,
		RangesDispatched:    c.rangesDispatched,
		Retries:             c.retries,
		Reassignments:       c.reassignments,
		LocalFallbacks:      c.localFallbacks,
		Merges:              c.merges,
		MergeLatencySeconds: c.mergeLatency.Snapshot(),
	}
}

// Join posts one registration of advertise with the coordinator at
// coordURL. Workers call it in a retry loop at boot (and periodically
// as a heartbeat — re-registration revives a worker the coordinator
// marked dead).
func Join(ctx context.Context, client *http.Client, coordURL, advertise string) error {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	raw, err := json.Marshal(JoinRequest{Addr: advertise})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordURL, "/")+JoinPath, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeShardHTTPError(resp)
	}
	return nil
}
