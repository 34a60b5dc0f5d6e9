// Package shard is the distributed RIC runtime: a coordinator splits
// the sample sequence [0, Θ) into disjoint contiguous ranges, dispatches
// each range to a worker process over a small HTTP protocol, and splices
// the returned shards back into the exact pool a single process would
// have generated.
//
// Determinism is the whole design: sample i is always drawn from PRNG
// stream i (ric.PoolOptions.Offset), so the union of any disjoint range
// decomposition is byte-identical to in-process generation regardless of
// worker count, worker deaths, or retries. The coordinator therefore
// never needs consensus — a range can be regenerated anywhere, including
// locally, and the result cannot change.
//
// Protocol endpoints (mounted by Worker.Routes / Coordinator.HandleJoin):
//
//	GET  /shard/ping  liveness probe
//	POST /shard/pool  generate samples [lo, hi) if not cached and stream
//	                  them as a length-prefixed, CRC-framed IMCS export
//	                  (ric.ExportRange)
//	POST /shard/join  worker self-registration with the coordinator
//
// Requests are JSON; the pool payload is binary (IMCS) inside the CRC
// frame from internal/atomicio, so corruption in transit fails closed.
// Workers persist generated ranges in the content-addressed pool cache
// (poolcache.SaveShard), so a killed-and-restarted worker serves the
// same bytes without regenerating.
package shard

import (
	"fmt"
	"strings"

	"imc/internal/diffusion"
)

// Protocol paths. Workers mount Ping and Pool; coordinators mount Join.
const (
	PingPath = "/shard/ping"
	PoolPath = "/shard/pool"
	JoinPath = "/shard/join"
)

// maxRangeWidth bounds how many samples one request may name, so a
// corrupt or hostile request cannot make a worker allocate unbounded
// memory. 1<<26 samples is far past any Θ the solvers reach.
const maxRangeWidth = 1 << 26

// Range is a half-open global sample-index interval [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// SplitRanges cuts [lo, hi) into at most n contiguous, disjoint ranges
// whose union is exactly [lo, hi), using the same ⌊width·w/n⌋ bounds for
// every caller — the coordinator, the tests, and the CI smoke job all
// agree on the decomposition. Fewer than n ranges come back when the
// interval is narrower than n (no empty ranges are produced); nil when
// the interval is empty or n < 1.
func SplitRanges(lo, hi, n int) []Range {
	width := hi - lo
	if width <= 0 || n < 1 {
		return nil
	}
	if n > width {
		n = width
	}
	out := make([]Range, 0, n)
	for w := 0; w < n; w++ {
		out = append(out, Range{Lo: lo + width*w/n, Hi: lo + width*(w+1)/n})
	}
	return out
}

// InstanceSpec names one experimental instance by construction recipe,
// not by value: coordinator and workers run the same code, so the spec
// rebuilds the identical (graph, partition) everywhere. The wdigest in
// the IMCS identity header re-checks that assumption at import time —
// a worker built against different code fails closed, never silently.
type InstanceSpec struct {
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Formation string  `json:"formation,omitempty"` // "louvain" (default) | "random"
	SizeCap   int     `json:"sizeCap,omitempty"`
	Bounded   bool    `json:"bounded,omitempty"`
	Seed      uint64  `json:"seed"`
	// Model is the diffusion model, "IC" (default) or "LT".
	Model string `json:"model,omitempty"`
}

// key is the worker's instance-cache key.
func (s InstanceSpec) key() string {
	return fmt.Sprintf("%s|%g|%s|%d|%v|%d|%s",
		s.Dataset, s.Scale, s.Formation, s.SizeCap, s.Bounded, s.Seed, s.Model)
}

// model resolves the diffusion model named by the spec.
func (s InstanceSpec) model() (diffusion.Model, error) {
	switch strings.ToUpper(s.Model) {
	case "", "IC":
		return diffusion.IC, nil
	case "LT":
		return diffusion.LT, nil
	default:
		return 0, fmt.Errorf("shard: unknown diffusion model %q", s.Model)
	}
}

// GenRequest asks a worker for global samples [Lo, Hi) of the pool
// identified by (Instance, PoolSeed, Instance.Model). It is the body of
// /shard/pool — generation is idempotent, so the worker generates on
// demand when the range is not cached.
type GenRequest struct {
	Instance InstanceSpec `json:"instance"`
	PoolSeed uint64       `json:"poolSeed"`
	Lo       int          `json:"lo"`
	Hi       int          `json:"hi"`
}

func (r GenRequest) validate() error {
	if r.Lo < 0 || r.Hi < r.Lo {
		return fmt.Errorf("shard: range [%d, %d) is not a valid sample interval", r.Lo, r.Hi)
	}
	if r.Hi-r.Lo > maxRangeWidth {
		return fmt.Errorf("shard: range width %d exceeds the %d-sample limit", r.Hi-r.Lo, maxRangeWidth)
	}
	return nil
}

// JoinRequest is a worker's self-registration: Addr is the base URL the
// coordinator should dial back (scheme://host:port).
type JoinRequest struct {
	Addr string `json:"addr"`
}

// JoinResponse acknowledges a registration.
type JoinResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
}
