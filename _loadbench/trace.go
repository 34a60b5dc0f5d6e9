package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imc/internal/core"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// span is one timed call into a layer, recorded from outside the layer
// by the wrappers below. Start and End are seconds since the run began.
// An async span (a shard range fetch, several of which run at once)
// is kept for its attributes but takes no part in self-time accounting.
type span struct {
	Op     int                `json:"op"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start"`
	End    float64            `json:"end"`
	Async  bool               `json:"async,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// opTrace holds the spans of one op. A nil *opTrace is the untraced
// mode: every method is a no-op and the wrappers return what they were
// given, so untraced ops run exactly the plain code path.
type opTrace struct {
	op   int
	base time.Time

	mu    sync.Mutex
	spans []span

	// root, solve and round are the ids of the open op, core.solve and
	// core.round spans; only the op's own goroutine touches them.
	root, solve, round int
	rounds             int
}

func newOpTrace(op int, base time.Time) *opTrace {
	t := &opTrace{op: op, base: base}
	t.root = t.begin("op", 0)
	return t
}

func (t *opTrace) open(name string, parent int, async bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: now, Async: async})
	return id
}

func (t *opTrace) begin(name string, parent int) int { return t.open(name, parent, false) }

func (t *opTrace) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *opTrace) setAttr(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
}

// beginSolve opens the core.solve span; endSolve closes it together
// with the last core.round span.
func (t *opTrace) beginSolve() {
	if t != nil {
		t.solve = t.begin("core.solve", t.root)
	}
}

func (t *opTrace) endSolve() {
	if t == nil {
		return
	}
	t.end(t.round)
	t.end(t.solve)
	t.round, t.solve = 0, 0
}

// nextRound closes the current core.round span and opens the next. The
// stop-and-stare loop grows the pool exactly once at the start of every
// round (the initial batch, then each doubling), so the grow hook marks
// the round boundaries; the index matches core.Checkpoint.Doublings.
func (t *opTrace) nextRound() {
	t.end(t.round)
	t.round = t.begin("core.round", t.solve)
	t.setAttr(t.round, "round", float64(t.rounds))
	t.rounds++
}

// wrapGrow times every call of a core.Options.Grow hook (nil meaning
// ric.Pool.EnsureCtx) as a span called name. splice, when set, reads
// the coordinator's cumulative splice seconds; its delta over the call
// is recorded as the span's splice_s attribute.
func (t *opTrace) wrapGrow(name string, grow core.GrowFunc, splice func() float64) core.GrowFunc {
	if t == nil {
		return grow
	}
	if grow == nil {
		grow = func(ctx context.Context, pool *ric.Pool, target int) error {
			return pool.EnsureCtx(ctx, target)
		}
	}
	return func(ctx context.Context, pool *ric.Pool, target int) error {
		t.nextRound()
		id := t.begin(name, t.round)
		var before float64
		if splice != nil {
			before = splice()
		}
		err := grow(context.WithValue(ctx, spanKey{}, spanRef{t, id}), pool, target)
		if splice != nil {
			t.setAttr(id, "splice_s", splice()-before)
		}
		t.setAttr(id, "samples", float64(pool.NumSamples()))
		t.end(id)
		return err
	}
}

// wrapSolver times each MAXR selection as a maxr.select span.
func (t *opTrace) wrapSolver(s maxr.Solver) maxr.Solver {
	if t == nil {
		return s
	}
	return tracedSolver{Solver: s, t: t}
}

// tracedSolver forwards Name and Guarantee to the wrapped solver and
// implements maxr.CtxSolver, so core reaches the inner solver's
// cancellable path through it.
type tracedSolver struct {
	maxr.Solver
	t *opTrace
}

func (s tracedSolver) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (maxr.Result, error) {
	id := s.t.begin("maxr.select", s.t.round)
	defer s.t.end(id)
	return maxr.SolveWithContext(ctx, s.Solver, pool, k)
}

// spanKey carries the open grow span through the request context, so
// the transport can parent each shard fetch under it.
type spanKey struct{}

type spanRef struct {
	t  *opTrace
	id int
}

// countingTransport counts response bytes the coordinator receives and,
// when the request context carries a grow span, records each fetch as
// an async shard.rpc span under it.
type countingTransport struct {
	base http.RoundTripper
	rx   *atomic.Int64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(spanRef)
	id := ref.t.open("shard.rpc", ref.id, true)
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		ref.t.end(id)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rx: c.rx, ref: spanRef{ref.t, id}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	rx  *atomic.Int64
	n   int64
	ref spanRef
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	b.rx.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.ref.t.setAttr(b.ref.id, "rx_bytes", float64(b.n))
	b.ref.t.end(b.ref.id)
	return b.ReadCloser.Close()
}

// layerKeys are the layers an op's wall time is split across, in
// report order. core.verify is a residual: the solve's time outside its
// grow and select calls (Alg. 6 stop checks and loop bookkeeping).
// trace.unattributed is op time outside every layer span (the harness
// and HTTP client).
var layerKeys = []string{
	"ric.grow", "maxr.select", "core.verify", "core.score",
	"serve.solver", "serve.overhead", "shard.fetch", "shard.splice",
	"trace.unattributed",
}

// addLayers adds each span's self time — its duration minus the union
// of its synchronous children — to the layer its name maps to, and
// returns the op's wall time. The self times of one op sum to its
// wall time exactly.
func (t *opTrace) addLayers(into map[string]float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if !s.Async && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var opSeconds float64
	for _, s := range t.spans {
		if s.Async {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		switch s.Name {
		case "op":
			opSeconds = s.End - s.Start
			into["trace.unattributed"] += self
		case "core.solve", "core.round":
			into["core.verify"] += self
		case "shard.grow":
			splice := min(s.Attrs["splice_s"], self)
			into["shard.splice"] += splice
			into["shard.fetch"] += self - splice
		case "serve.request":
			solver := min(s.Attrs["solver_s"], self)
			into["serve.solver"] += solver
			into["serve.overhead"] += self - solver
		default:
			into[s.Name] += self
		}
	}
	return opSeconds
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total float64
	lo, hi := parent.Start, parent.Start
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo = s
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}
