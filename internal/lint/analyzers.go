package lint

import "strings"

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{
	Determinism,
	FloatCompare,
	SeedPlumb,
	CtxPlumb,
	AllocFree,
	Layering,
	APISurface,
	LockHeld,
	HotPath,
	IfaceDispatch,
	StructLayout,
	FalseShare,
	ValueCopy,
	Presize,
}

// ByName resolves a comma-separated analyzer list ("determinism,floatcompare").
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
// ones that draw RIC samples or simulate diffusion in parallel.
var samplingPackages = map[string]bool{
	"imc/internal/ric":       true,
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
//   - seedplumb: the four sampling packages;
//   - layering: everywhere;
//   - everything else: library packages only. The //imc: contracts
//     (allocfree, ctxplumb, hotpath, ifacedispatch, valuecopy) and the
//     memory-layout contracts live in library code, cmd/ binaries and
//     examples/ have no API consumers, and they hold no long-lived
//     locks.
func AnalyzersFor(modulePath, path string, candidates []*Analyzer) []*Analyzer {
	lib := isLibraryPackage(modulePath, path)
	out := make([]*Analyzer, 0, len(candidates))
	for _, a := range candidates {
		switch a.Name {
		case "determinism":
			if lib && path != modulePath+clockPackage {
				out = append(out, a)
			}
		case "seedplumb":
			if samplingPackages[path] {
				out = append(out, a)
			}
		case "layering":
			out = append(out, a)
		default:
			if lib {
				out = append(out, a)
			}
		}
	}
	return out
}
