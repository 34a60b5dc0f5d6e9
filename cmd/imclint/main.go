// Command imclint runs the repository's static-analysis suite:
// twenty-four analyzers built on go/parser, go/ast, and go/types (one
// of them, hotpath, also reads the compiler's own -m=2 and
// bounds-check diagnostics) that machine-check the determinism,
// concurrency, allocation, layering, numeric, hot-path performance,
// and memory-layout invariants the RIC-sampling guarantees depend on
// (see DESIGN.md, "Static analysis & invariants").
//
// Usage:
//
//	imclint [-check name,name] [-list] [-graph] [-update-api] [-json] [-bench file] [-cache=false] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit
// status is 1 when any diagnostic fires, 0 on a clean tree, 2 on usage
// or load errors. Intentional violations are suppressed with a
// `//lint:allow <check>: <reason>` comment on the offending line or the
// line above; the suite reports stale or malformed suppressions itself.
//
// -graph dumps the whole-program call graph (node/edge/SCC stats, then
// one entry per function with its effect summary and resolved callees,
// followed by the lock-order graph: witness edges and any cycles) and
// exits. -update-api regenerates the exported-API snapshot the
// apisurface analyzer checks against. -bench additionally writes a
// BENCH_lint.json-shaped file with per-analyzer wall time, findings
// count, and the call/lock graph sizes.
//
// -json emits a {"callgraph": stats, "lockgraph": stats, "findings":
// [...]} object.
//
// Full-module runs consult a per-package fact cache under
// <module>/.imclint-cache/, keyed by a content hash over the module's
// analysis inputs; when nothing has changed the whole report replays
// without parsing a file. -cache=false disables it, and the -json
// report carries hit/miss counts under "cache".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"imc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is the machine-readable form of one diagnostic — the schema
// of the -json findings array.
type finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// report is the -json output shape: call-graph stats alongside the
// findings, so the CI artifact records the interprocedural view the
// findings were computed against. Cache is present only when the fact
// cache was consulted (full-module runs with -cache left on).
type report struct {
	CallGraph lint.CallGraphStats `json:"callgraph"`
	LockGraph lint.LockGraphStats `json:"lockgraph"`
	Cache     *cacheStats         `json:"cache,omitempty"`
	Findings  []finding           `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks    = fs.String("check", "", "comma-separated analyzer subset (default: all)")
		list      = fs.Bool("list", false, "list analyzers and exit")
		graph     = fs.Bool("graph", false, "dump the whole-program call graph and exit")
		updateAPI = fs.Bool("update-api", false, "regenerate the exported-API snapshot and exit")
		jsonOut   = fs.Bool("json", false, "emit callgraph stats + findings as JSON")
		bench     = fs.String("bench", "", "write per-analyzer wall time + findings counts to this JSON file")
		cacheOn   = fs.Bool("cache", true, "use the per-package fact cache on full-module runs")
		cacheDir  = fs.String("cache-dir", "", "fact-cache directory (default <module>/.imclint-cache)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-14s %-16s %s\n", a.Name, a.Kind, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *checks != "" {
		var ok bool
		analyzers, ok = lint.ByName(*checks)
		if !ok {
			fmt.Fprintf(stderr, "imclint: unknown analyzer in -check %q\n", *checks)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "imclint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "imclint:", err)
		return 2
	}

	// The fact cache only serves full-module lint runs: -graph and
	// -update-api need the live program, -bench must time real work, and
	// a partial package list has no stable manifest to replay.
	var cache *factCache
	if *cacheOn && !*graph && !*updateAPI && *bench == "" && fullModuleLoad(fs.Args()) {
		dir := *cacheDir
		if dir == "" {
			dir = filepath.Join(loader.ModuleDir, ".imclint-cache")
		}
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		// Hash errors (unreadable tree) just disable the cache; the
		// loader will surface anything that actually matters.
		if c, err := openCache(dir, loader.ModuleDir, strings.Join(names, ",")); err == nil {
			cache = c
		}
	}
	if cache != nil {
		if m, cached, ok := cache.replay(); ok {
			rep := report{CallGraph: m.CallGraph, LockGraph: m.LockGraph, Cache: &cache.stats, Findings: append([]finding{}, cached...)}
			return emit(stdout, stderr, *jsonOut, rep)
		}
	}

	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "imclint:", err)
		return 2
	}
	prog := lint.NewProgram(loader.ModulePath, loader.ModuleDir, pkgs, fullModuleLoad(fs.Args()))

	if *graph {
		var b strings.Builder
		prog.Graph.Dump(&b)
		prog.DumpLocks(&b)
		io.WriteString(stdout, b.String())
		return 0
	}
	if *updateAPI {
		if !prog.FullModule {
			fmt.Fprintln(stderr, "imclint: -update-api requires a full-module load (run without package arguments)")
			return 2
		}
		if err := os.WriteFile(prog.APISnapPath, lint.WriteAPISnapshot(prog), 0o644); err != nil {
			fmt.Fprintln(stderr, "imclint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", relToModule(loader.ModuleDir, prog.APISnapPath))
		return 0
	}

	findings := []finding{} // non-nil so -json prints [] on a clean tree
	var manifestPkgs []string
	for _, pkg := range pkgs {
		var pkgFindings []finding
		cached := false
		if cache != nil {
			pkgFindings, cached = cache.load(pkg.Path)
		}
		if !cached {
			if active := lint.AnalyzersFor(loader.ModulePath, pkg.Path, analyzers); len(active) > 0 {
				for _, d := range lint.Run(pkg, active) {
					pkgFindings = append(pkgFindings, finding{
						Check:   d.Check,
						File:    relToModule(loader.ModuleDir, d.Pos.Filename),
						Line:    d.Pos.Line,
						Col:     d.Pos.Column,
						Message: d.Message,
					})
				}
			}
		}
		if cache != nil {
			if cached {
				cache.stats.Hits++
			} else {
				cache.stats.Misses++
				cache.store(pkg.Path, pkgFindings)
			}
			manifestPkgs = append(manifestPkgs, pkg.Path)
		}
		findings = append(findings, pkgFindings...)
	}
	if cache != nil {
		cache.storeManifest(manifestPkgs, prog.Graph.Stats(), prog.LockStats())
	}

	if *bench != "" {
		if err := writeBench(*bench, prog, pkgs, loader, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "imclint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *bench)
	}

	rep := report{CallGraph: prog.Graph.Stats(), LockGraph: prog.LockStats(), Findings: findings}
	if cache != nil {
		rep.Cache = &cache.stats
	}
	return emit(stdout, stderr, *jsonOut, rep)
}

// emit renders the report (JSON or line-per-finding) and returns the
// process exit code — shared by the live path and the cache replay.
func emit(stdout, stderr io.Writer, jsonOut bool, rep report) int {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "imclint:", err)
			return 2
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Check, f.Message)
		}
	}
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

// benchEntry is one analyzer's row in the -bench report.
type benchEntry struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Millis   float64 `json:"millis"`
	Findings int     `json:"findings"`
}

// benchSchema versions the -bench output shape so downstream tooling
// can reject files it does not understand. v2 added the platform field
// (the layout analyzers' timings are shaped by the size model, which
// is per-platform) alongside the v6 memory-layout analyzer rows.
const benchSchema = "imclint-bench/v2"

// benchReport is the -bench output shape: per-analyzer wall time and
// reported-findings count, plus the sizes of the interprocedural
// structures the expensive analyzers run against. Key order is fixed
// by field declaration order (no maps anywhere in the shape), so two
// runs on the same tree diff cleanly.
type benchReport struct {
	Schema    string              `json:"schema"`
	GoVersion string              `json:"goversion"`
	Platform  string              `json:"platform"`
	Packages  int                 `json:"packages"`
	CallGraph lint.CallGraphStats `json:"callgraph"`
	LockGraph lint.LockGraphStats `json:"lockgraph"`
	Analyzers []benchEntry        `json:"analyzers"`
}

// writeBench times each analyzer in isolation across every loaded
// package (respecting the same per-package gating the real run uses)
// and writes the report to path. Timing runs after the real findings
// pass, so the program-wide caches (call graph, lock info) are warm and
// the numbers measure the analyzers themselves, not one lucky analyzer
// paying for shared construction. Findings counts come from the real
// pass — the timing runs re-execute analyzers one at a time, which
// would double-count suppression hygiene.
func writeBench(path string, prog *lint.Program, pkgs []*lint.Package, loader *lint.Loader, analyzers []*lint.Analyzer, findings []finding) error {
	perCheck := make(map[string]int)
	for _, f := range findings {
		perCheck[f.Check]++
	}
	rep := benchReport{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		Packages:  len(pkgs),
		CallGraph: prog.Graph.Stats(),
		LockGraph: prog.LockStats(),
	}
	for _, a := range analyzers {
		start := time.Now()
		for _, pkg := range pkgs {
			if len(lint.AnalyzersFor(loader.ModulePath, pkg.Path, []*lint.Analyzer{a})) == 0 {
				continue
			}
			lint.Run(pkg, []*lint.Analyzer{a})
		}
		rep.Analyzers = append(rep.Analyzers, benchEntry{
			Name:     a.Name,
			Kind:     string(a.Kind),
			Millis:   float64(time.Since(start).Microseconds()) / 1e3,
			Findings: perCheck[a.Name],
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fullModuleLoad reports whether the package arguments cover the whole
// module — the precondition for apisurface (a partial load cannot tell
// "removed" from "not requested") and -update-api.
func fullModuleLoad(args []string) bool {
	if len(args) == 0 {
		return true
	}
	for _, a := range args {
		if a == "./..." || a == "..." {
			return true
		}
	}
	return false
}

// relToModule renders path relative to the module root, the stable
// form findings are reported in.
func relToModule(moduleDir, path string) string {
	if rel, err := filepath.Rel(moduleDir, path); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return rel
	}
	return path
}
