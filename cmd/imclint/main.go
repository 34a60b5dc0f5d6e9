// Command imclint runs the repository's static-analysis suite:
// fourteen analyzers built on go/parser, go/ast, and go/types (one of
// them, hotpath, also reads the compiler's own -m=2 and bounds-check
// diagnostics) that machine-check the determinism, concurrency,
// allocation, layering, numeric, hot-path performance, and
// memory-layout invariants the RIC-sampling guarantees depend on (see
// DESIGN.md, "Static analysis & invariants").
//
// Usage:
//
//	imclint [-check name,name] [-list] [-graph] [-update-api] [-json] [-bench file] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit
// status is 1 when any diagnostic fires, 0 on a clean tree, 2 on usage
// or load errors. Intentional violations are suppressed with a
// `//lint:allow <check>: <reason>` comment on the offending line or the
// line above. The suite itself reports stale or malformed suppressions
// and //imc: directives that would do nothing.
//
// -graph dumps the whole-program call graph (node/edge/SCC stats, then
// one entry per function with its effect summary and resolved callees)
// and exits. -update-api regenerates the exported-API snapshot the
// apisurface analyzer checks against. -bench additionally writes a
// BENCH_lint.json-shaped file with per-analyzer wall time, findings
// count, and the call-graph size.
//
// -json emits a {"callgraph": stats, "findings": [...]} object.
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
// findings were computed against.
type report struct {
	CallGraph lint.CallGraphStats `json:"callgraph"`
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

	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "imclint:", err)
		return 2
	}
	prog := lint.NewProgram(loader.ModulePath, loader.ModuleDir, pkgs, fullModuleLoad(fs.Args()))

	if *graph {
		var b strings.Builder
		prog.Graph.Dump(&b)
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
	for _, pkg := range pkgs {
		active := lint.AnalyzersFor(loader.ModulePath, pkg.Path, analyzers)
		if len(active) == 0 {
			continue
		}
		for _, d := range lint.Run(pkg, active) {
			findings = append(findings, finding{
				Check:   d.Check,
				File:    relToModule(loader.ModuleDir, d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Message: d.Message,
			})
		}
	}

	if *bench != "" {
		if err := writeBench(*bench, prog, pkgs, loader, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "imclint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *bench)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{CallGraph: prog.Graph.Stats(), Findings: findings}); err != nil {
			fmt.Fprintln(stderr, "imclint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Check, f.Message)
		}
	}
	if len(findings) > 0 {
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
// is per-platform); v3 dropped the lockgraph block along with the
// lock-order analyzer.
const benchSchema = "imclint-bench/v3"

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
	Analyzers []benchEntry        `json:"analyzers"`
}

// writeBench times each analyzer in isolation across every loaded
// package (respecting the same per-package gating the real run uses)
// and writes the report to path. Timing runs after the real findings
// pass, so the program-wide caches (call graph, summaries) are warm and
// the numbers measure the analyzers themselves, not one lucky analyzer
// paying for shared construction. The clock covers the analyzer's Run
// only: building the reporter and the suppression and directive
// hygiene passes that lint.Run adds are not the analyzer's cost.
// Findings counts come from the real pass.
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
	}
	for _, a := range analyzers {
		var elapsed time.Duration
		for _, pkg := range pkgs {
			if len(lint.AnalyzersFor(loader.ModulePath, pkg.Path, []*lint.Analyzer{a})) == 0 {
				continue
			}
			r := lint.NewReporter(pkg)
			start := time.Now()
			a.Run(pkg, r)
			elapsed += time.Since(start)
		}
		rep.Analyzers = append(rep.Analyzers, benchEntry{
			Name:     a.Name,
			Kind:     string(a.Kind),
			Millis:   float64(elapsed.Microseconds()) / 1e3,
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
