// Command loadbench is the repository's layered load benchmark: whole
// IMCAF solves, /solve requests through the HTTP server, and
// distributed solves, each timed end to end and, in a separate traced
// run, split across the repository's layers by timing calls into their
// public functions from outside.
//
// Run it from the repository root through its build wrapper, which
// keeps the binary and the Go build cache under .bench_build/:
//
//	bash _loadbench/run.sh -workload solve-verify -seed 42 -seconds 25 -trace 0
//	bash _loadbench/run.sh -workload all -seed 42 -out run.json
//	bash _loadbench/run.sh -workload all -seed 42 -trace 1 -out traced.json
//	bash _loadbench/run.sh -compare 'base/*.json' 'head/*.json'
//
// # Workloads
//
// Every workload uses bounded thresholds (h = 2), ε = δ = 0.2, and a
// closed loop, because every caller of a solve (CLI, library, sidecar
// client) waits for its answer. Each run sets up five times and keeps
// the last set-up; every set-up ends with two untimed warm-up ops. Op i
// draws its solve and pool seed from -seed, so the same seed gives the
// same inputs. The timed window holds at least 100 ops and ends on the
// whole block of ops (see serve-zipf) nearest to -seconds. Every
// workload has a single caller: the machine the workloads were sized on
// has 2 cores, and with a second caller serve-zipf's p90 latency and
// throughput spread by more than their 25% bound from run to run.
//
// Each solve workload runs one algorithm: two algorithms of different
// cost would split the op times into two clusters with the median in
// the gap between them, where it jumps from run to run.
//
//   - solve-verify: one in-process solve (core.SolveCtx plus the final
//     core.EstimateCtx scoring, with the options expt.RunAlgCtx uses at
//     Runs=1) with MAF on facebook@0.1, k = 10. The graph is dense and
//     every op certifies by stop condition, so Alg. 6 verification
//     dominates and MAXR selection barely shows.
//   - solve-select: the same op with MB (BT roots 64) on dblp@0.02
//     (~1.1k small communities), MaxSamples 8192. Every op hits the
//     sample cap, so it is uncertified by design; MAXR selection
//     dominates and verification does not. A greedy or BT kernel change
//     shows here; a verification change should not.
//   - serve-zipf: POST /solve to an in-process server behind httptest,
//     with a pool cache in a temporary directory and imcserve's default
//     1 GiB budget. 32 keys = {karate@1, facebook@0.05} x instance
//     seeds 1-4 x {UBG, MAF} x k in {5, 10}, in a fixed popularity
//     order. Every block of 50 requests holds key r in proportion to
//     (r+1)^-1.1 (Zipf 1.1), in an order -seed shuffles: keys differ
//     several-fold in cost, so i.i.d. draws would change the cost mix,
//     and every latency metric, from seed to seed. 1 client, and the
//     server admits 1 at once, so nothing is shed by design. The first
//     request of each instance seed generates and saves its pool; later
//     ones adopt cached samples. The only workload through HTTP, the
//     instance cache and the pool cache.
//   - shard-solve: the solve op with UBG and Options.Grow =
//     Coordinator.GrowFunc over 2 in-process workers behind httptest,
//     without pool cache or ledger, on facebook@0.05. The only workload
//     whose samples cross the shard protocol. 1 and 4 workers are left
//     out: 4 would oversubscribe a 2-core machine.
//
// After the window, 8 evenly spaced ops are solved again through the
// plain path (expt.RunAlgCtx, Runs=1, no cache, shard or wrapper); a
// seed or benefit mismatch counts as a failed op. The SHA-256
// fingerprint of the first 100 ops' seed sets is printed, and must be
// the same for traced and untraced runs of one seed.
//
// # Metrics
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics:
//
//	setup_s           s      median of the 5 set-ups
//	latency_p50_s     s      nearest-rank median of per-op wall time
//	latency_p90_s     s      nearest-rank 90th percentile
//	throughput_ops_s  ops/s  timed ops / timed wall time
//	benefit_frac      ratio  mean scored benefit / total benefit, first 100 ops
//	maxrss_mb         MiB    peak resident set of the process
//
// The time metrics may worsen by 25% before a change counts as a
// regression: on the 2-vCPU machine the workloads were sized on, ten
// runs of identical code spread by up to 22%, because the machine's
// speed drifts under outside load. BASELINE.json records the measured
// medians, spreads, per-layer split and fingerprints.
//
// Percentiles are exact over the raw per-op durations, and one with
// fewer than 10 ops beyond it is refused. With -trace 1 every op
// records spans (op id, name, start, end, parent, attributes) around
// the calls into each layer: expt.BuildInstance (expt), the
// core.Options.Grow hook (ric, or shard on shard-solve), a maxr.Solver
// wrapper (maxr), core.SolveCtx and the final core.EstimateCtx (core),
// the HTTP call and the reply's elapsedMs (serve), pool cache and
// coordinator counters (poolcache, shard), and runtime.ReadMemStats
// (go). A span's self time is its duration minus the part its
// children cover; the self times of an op sum to its wall time, and
// the *_share metrics give each layer's part. core.verify is a
// residual: solve time outside grow and select. Spans stay in memory
// and are written with -out when the run ends. The traced p50 over
// the untraced p50, minus 1, is the tracing overhead.
//
// # Comparing two commits
//
// Build both commits' benchmarks, then run ten pairs per workload,
// alternating which side runs first, each run with its own -out file:
//
//	for i in 1 2 3 4 5 6 7 8 9 10; do
//	  if [ $((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi
//	  for side in $order; do
//	    (cd $side && bash _loadbench/run.sh -workload all -seed $i -out ../runs/$side-$i.json)
//	  done
//	done
//	bash _loadbench/run.sh -compare 'runs/base-*.json' 'runs/head-*.json'
//
// -compare prints each side's median and quartiles, the fraction of
// pairs head won, and a verdict per workload and metric: improved (9/10
// of at least 10 pairs won and the medians differ by more than base's
// quartile spread), regressed (head's median worse by more than the
// metric's bound), unresolved (base's own spread exceeds the bound), or
// unchanged. It exits non-zero on a regression or a higher failed-op
// fraction.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imc/internal/core"
)

// Harness constants; BENCHMARK.json's run_seconds is the default window.
const (
	defaultSeconds = 25
	setupReps      = 5
	warmupOps      = 2
	// minOps ops are timed even past -seconds, so p90 always has 10
	// ops beyond it; the fingerprint and benefit_frac cover these ops.
	minOps   = 100
	checkOps = 8
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Uint64("seed", 42, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	out := fs.String("out", "", "write the run records (op times, all metrics, fingerprint, spans) to this JSON file")
	compareRuns := fs.Bool("compare", false, "compare run files: -compare '<base glob>' '<head glob>'")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if *compareRuns {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two glob patterns: base runs, head runs")
		}
		return compare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2, nil
	}
	if *name == "all" {
		return runAll(ctx, stdout, *seed, *seconds, *trace, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	rec, _, err := measure(ctx, w, runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		minOps: minOps, minBeyond: minBeyond, setups: setupReps, traced: *trace == 1,
	})
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	if *out != "" {
		if err := writeRecords(*out, []*record{rec}); err != nil {
			return 1, err
		}
	}
	if err := rec.print(stdout); err != nil {
		return 1, err
	}
	if rec.Failed > 0 {
		return 1, fmt.Errorf("%s: %d of %d ops failed", w.name, rec.Failed, rec.Attempted)
	}
	return 0, nil
}

func usage(fs *flag.FlagSet) {
	o := fs.Output()
	fmt.Fprint(o, "usage: loadbench [-workload all|<name>] [-seed n] [-seconds s] [-trace 0|1] [-out file]\n")
	fmt.Fprint(o, "       loadbench -compare '<base glob>' '<head glob>'\n\n")
	fs.PrintDefaults()
	fmt.Fprint(o, "\nworkloads (closed loop, one caller, bounded thresholds, eps = delta = 0.2):\n")
	for _, w := range workloads {
		fmt.Fprintf(o, "  %-13s %s\n  %-13s why: %s\n", w.name, w.op, "", w.why)
	}
	fmt.Fprint(o, "\nend-to-end metrics (-trace 0):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(o, "  %-26s %-6s %s is better, bound %g: %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Fprint(o, "\nper-layer metrics (-trace 1):\n")
	for _, m := range perLayer {
		fmt.Fprintf(o, "  %-26s %-6s %s\n", m.Name, m.Unit, m.Doc)
	}
	fmt.Fprint(o, `
A traced run records spans around each layer call and writes them with
-out. To compare two commits, run ten pairs per workload alternating
which commit goes first, each with its own -out file, then run -compare
on the two sets; see the package documentation for the script.
`)
}

type runConfig struct {
	seed   uint64
	window time.Duration
	minOps int
	// minBeyond is how many ops must lie beyond a reported percentile.
	minBeyond int
	setups    int
	traced    bool
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type platform struct {
	GoVersion  string `json:"goversion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// record is one run of one workload, as written by -out.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Platform  platform `json:"platform"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Fingerprint is the SHA-256 of the first minOps ops' seed sets.
	Fingerprint string `json:"fingerprint"`
	// Metrics are BENCHMARK.json's metrics for the run's mode; Extra
	// holds the rest (fail_frac, certified_frac, per-layer seconds).
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra"`
	OpSeconds []float64        `json:"opSeconds"`
	Spans     []span           `json:"spans,omitempty"`
}

// opRun is one timed op.
type opRun struct {
	dur   time.Duration
	res   result
	err   error
	trace *opTrace
}

// measure sets w up, runs its timed window and output check, and
// returns the run's record and its timed ops.
func measure(ctx context.Context, w workload, cfg runConfig) (*record, []opRun, error) {
	builds := &buildTimer{}
	var h *harness
	setups := make([]float64, 0, cfg.setups)
	for rep := 0; rep < cfg.setups; rep++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		var err error
		if h, err = w.start(cfg.seed, cfg.traced, builds); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < warmupOps; i++ {
			if _, err := h.op(ctx, i, nil); err != nil {
				h.close()
				return nil, nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.close()

	runtime.GC()
	before := h.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops, wall := timedOps(ctx, h, w.block, cfg)
	runtime.ReadMemStats(&m1)
	after := h.counters()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	rec := &record{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Platform:  platform{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)},
		Attempted: len(ops),
		Metrics:   make(map[string]value), Extra: make(map[string]value),
	}
	for j, op := range ops {
		if op.err != nil {
			rec.fail("op %d: %v", j, op.err)
		}
	}
	local, err := check(ctx, h, ops, rec)
	if err != nil {
		return nil, nil, err
	}

	durs := make([]time.Duration, len(ops))
	for j, op := range ops {
		durs[j] = op.dur
		rec.OpSeconds = append(rec.OpSeconds, op.dur.Seconds())
	}
	p50, err := percentile(durs, 0.5, cfg.minBeyond)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(durs, 0.9, cfg.minBeyond)
	if err != nil {
		return nil, nil, err
	}
	fp := sha256.New()
	var benefit, certified, known float64
	for j, op := range ops[:min(len(ops), cfg.minOps)] {
		fmt.Fprintf(fp, "%d:%v\n", j, op.res.seeds)
		if op.res.total > 0 {
			benefit += op.res.benefit / op.res.total
		}
	}
	for _, op := range ops {
		if op.res.stopped != 0 {
			known++
			if op.res.stopped != core.StopSampleCap {
				certified++
			}
		}
	}
	rec.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	_, setup, _ := quartiles(setups)
	n := float64(len(ops))
	all := map[string]float64{
		"setup_s":          setup,
		"latency_p50_s":    p50,
		"latency_p90_s":    p90,
		"throughput_ops_s": n / wall.Seconds(),
		"benefit_frac":     benefit / float64(min(len(ops), cfg.minOps)),
		"maxrss_mb":        maxRSSMiB(),
		"fail_frac":        float64(rec.Failed) / n,

		"poolcache.hit_frac":        ratio(after.pool.Hits-before.pool.Hits, after.pool.Hits+after.pool.Misses-before.pool.Hits-before.pool.Misses),
		"poolcache.adopted_samples": float64(after.pool.AdoptedSamples-before.pool.AdoptedSamples) / n,
		"poolcache.saves":           float64(after.pool.Saves-before.pool.Saves) / n,
		"poolcache.disk_mb":         float64(after.pool.Bytes) / (1 << 20),
		"poolcache.errors":          float64(after.pool.Errors - before.pool.Errors),
		"serve.shed":                float64(after.shed - before.shed),
		"shard.rx_mb":               float64(after.rx-before.rx) / n / (1 << 20),
		"shard.ranges":              float64(after.shard.RangesDispatched-before.shard.RangesDispatched) / n,
		"shard.retries":             float64(after.shard.Retries - before.shard.Retries),
		"shard.local_fallbacks":     float64(after.shard.LocalFallbacks - before.shard.LocalFallbacks),
		"go.alloc_mb_per_op":        float64(m1.TotalAlloc-m0.TotalAlloc) / n / (1 << 20),
		"go.gc_cycles_per_op":       float64(m1.NumGC-m0.NumGC) / n,
	}
	if known > 0 {
		all["certified_frac"] = certified / known
	}
	if w.kind == shardSolve && len(local) > 0 {
		_, l50, _ := quartiles(local)
		all["shard.vs_local_ratio"] = p50 / l50
	} else {
		all["shard.vs_local_ratio"] = 0
	}
	if cfg.traced {
		traceMetrics(ops, builds, all)
		for _, op := range ops {
			rec.Spans = append(rec.Spans, op.trace.spans...)
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = value{v, d.Unit}
		delete(all, d.Name)
	}
	for name, v := range all {
		rec.Extra[name] = value{v, unitOf(name)}
	}
	return rec, ops, nil
}

func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// timedOps runs the closed loop of the workload's one caller until at
// least minOps ops ran and the count is the multiple of block nearest
// the end of the window. A block of serve-zipf lasts about half the
// window, so stopping at the first boundary past it would make a run
// last anywhere from one to one and a half windows.
func timedOps(ctx context.Context, h *harness, block int, cfg runConfig) ([]opRun, time.Duration) {
	start := time.Now()
	var ops []opRun
	done := func() bool {
		n := len(ops)
		if n < cfg.minOps || n == 0 || n%block != 0 {
			return false
		}
		elapsed := time.Since(start)
		halfBlock := elapsed * time.Duration(block) / time.Duration(2*n)
		return elapsed+halfBlock >= cfg.window
	}
	for j := 0; ctx.Err() == nil && !done(); j++ {
		var tr *opTrace
		if cfg.traced {
			tr = newOpTrace(j, start)
		}
		t0 := time.Now()
		res, err := h.op(ctx, warmupOps+j, tr)
		d := time.Since(t0)
		tr.end(rootOf(tr))
		ops = append(ops, opRun{dur: d, res: res, err: err, trace: tr})
	}
	return ops, time.Since(start)
}

// check re-solves checkOps evenly spaced ops through the plain path and
// counts each mismatch as a failed op. It returns the plain solves'
// wall times.
func check(ctx context.Context, h *harness, ops []opRun, rec *record) ([]float64, error) {
	var local []float64
	for c := 0; c < checkOps && len(ops) > 0; c++ {
		j := c * len(ops) / checkOps
		if ops[j].err != nil {
			continue
		}
		start := time.Now()
		want, err := h.plain(ctx, warmupOps+j)
		if err != nil {
			return nil, fmt.Errorf("output check of op %d: %w", j, err)
		}
		local = append(local, time.Since(start).Seconds())
		if got := ops[j].res; !got.matches(want) {
			rec.fail("op %d: seeds %v benefit %v, plain path gives seeds %v benefit %v",
				j, got.seeds, got.benefit, want.seeds, want.benefit)
		}
	}
	return local, nil
}

// traceMetrics adds the span-derived per-layer metrics to all.
func traceMetrics(ops []opRun, builds *buildTimer, all map[string]float64) {
	layers := make(map[string]float64)
	var opSeconds, samples, rounds, scoreSamples float64
	for _, op := range ops {
		opSeconds += op.trace.addLayers(layers)
		samples += float64(op.res.samples)
		rounds += float64(op.trace.rounds)
		scoreSamples += float64(op.res.scoreSamples)
	}
	n := float64(len(ops))
	for _, k := range layerKeys {
		all[k+"_share"] = layers[k] / opSeconds
		all[k+"_s"] = layers[k] / n
	}
	calls, secs := builds.snapshot()
	all["expt.build_s"] = secs / float64(calls)
	all["trace.op_mean_s"] = opSeconds / n
	all["ric.samples"] = samples / n
	all["core.rounds"] = rounds / n
	all["core.score_samples"] = scoreSamples / n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// unitOf gives the unit of a metric reported as extra.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return "ratio"
}

// maxRSSMiB is the process's peak resident set. Linux reports ru_maxrss
// in KiB, macOS in bytes.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}

// print writes the human-readable report and, last, the one-line JSON
// result.
func (r *record) print(w io.Writer) error {
	fmt.Fprintf(w, "%s seed=%d traced=%v ops=%d failed=%d\n", r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for name := range r.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-28s %14.6g %s (extra)\n", name, r.Extra[name].Value, r.Extra[name].Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "fingerprint %s %s\n", r.Workload, r.Fingerprint)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeRecords(path string, recs []*record) error {
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak RSS, and merges their records into out.
func runAll(ctx context.Context, stdout io.Writer, seed uint64, seconds, trace int, out string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	var recs []*record
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		part := ""
		if out != "" {
			part = out + "." + w.name
			args = append(args, "-out", part)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		runErr := cmd.Run()
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", w.name, runErr)
			code = 1
		}
		if part == "" {
			continue
		}
		// A child whose ops failed still wrote its record; one that
		// could not run wrote none.
		rs, err := readRecords(part)
		os.Remove(part)
		switch {
		case err == nil:
			recs = append(recs, rs...)
		case runErr == nil:
			return 1, err
		}
	}
	if out != "" {
		if err := writeRecords(out, recs); err != nil {
			return 1, err
		}
	}
	return code, nil
}
