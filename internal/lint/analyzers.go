package lint

import "strings"

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{
	Determinism,
	FloatCompare,
	GoroutineLeak,
	Printer,
	SeedPlumb,
	CtxFirst,
	CtxPlumb,
	AllocFree,
	ErrFlow,
	Purity,
	ShareMut,
	Layering,
	APISurface,
	Exhaustive,
	ChanCtx,
	GuardedBy,
	LockHeld,
	LockOrder,
	HotPath,
	IfaceDispatch,
	StructLayout,
	FalseShare,
	ValueCopy,
	Presize,
}

// ByName resolves a comma-separated analyzer list ("determinism,printer").
func ByName(names string) ([]*Analyzer, bool) {
	parts := strings.Split(names, ",")
	out := make([]*Analyzer, 0, len(parts))
	for _, name := range parts {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// samplingPackages are the packages under the seedplumb contract: the
// ones that draw RIC/RR samples or simulate diffusion in parallel.
var samplingPackages = map[string]bool{
	"imc/internal/ric":       true,
	"imc/internal/ris":       true,
	"imc/internal/diffusion": true,
	"imc/internal/maxr":      true,
}

// isLibraryPackage reports whether path is library code (the root
// package or anything under internal/), as opposed to cmd/ binaries and
// examples/ which legitimately print and read the clock.
func isLibraryPackage(modulePath, path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/internal/")
}

// clockPackage is the sanctioned wall-clock access point: the ONLY
// library package allowed to call time.Now. Exempting it here replaces
// the //lint:allow suppression it used to carry — the boundary is now
// policy, not a per-line waiver.
const clockPackage = "/internal/clock"

// AnalyzersFor returns the subset of candidates that applies to the
// package at the given import path. Gating lives here — analyzers
// themselves are unconditional, which keeps their fixture tests simple:
//
//   - determinism: library packages only, except internal/clock (the
//     sanctioned time.Now wrapper);
//   - floatcompare, printer: library packages only;
//   - seedplumb: the four sampling packages;
//   - allocfree, purity, ctxplumb: library packages only (the //imc:
//     annotation contracts live in library code; cmd/ and examples/ are
//     not on the sampling hot path);
//   - apisurface: library packages only (cmd/ binaries and examples/
//     have no API consumers);
//   - exhaustive: the dispatch packages (expt, serve) whose switches
//     route on registered algorithm/scheme const sets;
//   - chanctx, guardedby, lockheld: library packages only (cmd/
//     binaries hold no long-lived locks and their signal-wait selects
//     are the process's own lifetime, not a leaked goroutine's);
//   - hotpath, ifacedispatch: library packages only (the //imc:hotpath
//     perf contracts live in library code, like allocfree);
//   - structlayout, falseshare, valuecopy, presize: library packages
//     only (the memory-layout contracts guard the pooled kernel
//     structs and worker fan-outs; cmd/ wiring is not bandwidth-bound);
//   - goroutineleak, ctxfirst, errflow, sharemut, layering, lockorder:
//     everywhere (a lock-order cycle is a deadlock wherever it lives).
func AnalyzersFor(modulePath, path string, candidates []*Analyzer) []*Analyzer {
	lib := isLibraryPackage(modulePath, path)
	out := make([]*Analyzer, 0, len(candidates))
	for _, a := range candidates {
		switch a.Name {
		case "determinism":
			if lib && path != modulePath+clockPackage {
				out = append(out, a)
			}
		case "floatcompare", "printer", "allocfree", "purity", "ctxplumb", "apisurface",
			"chanctx", "guardedby", "lockheld",
			"hotpath", "ifacedispatch",
			"structlayout", "falseshare", "valuecopy", "presize":
			if lib {
				out = append(out, a)
			}
		case "seedplumb":
			if samplingPackages[path] {
				out = append(out, a)
			}
		case "exhaustive":
			if dispatchPackages[path] {
				out = append(out, a)
			}
		default:
			out = append(out, a)
		}
	}
	return out
}

// dispatchPackages route requests to algorithms by name — the switches
// the exhaustive analyzer polices.
var dispatchPackages = map[string]bool{
	"imc/internal/expt":  true,
	"imc/internal/serve": true,
}
