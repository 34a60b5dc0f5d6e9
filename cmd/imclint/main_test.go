package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imc/internal/lint"
)

// fixtureDir is a package (module-relative) with known determinism
// violations — the lint suite's own golden fixture.
const fixtureDir = "internal/lint/testdata/src/determinism"

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanTree(t *testing.T) {
	code, out, errb := runCmd(t, "internal/clock")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errb)
	}
	if out != "" {
		t.Errorf("clean tree must print nothing, got %q", out)
	}
}

func TestExitFindings(t *testing.T) {
	code, out, _ := runCmd(t, "-check", "determinism", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	if !strings.Contains(out, "[determinism]") {
		t.Errorf("findings output missing check tag: %q", out)
	}
	// Paths are module-relative so findings survive checkout moves.
	first := strings.SplitN(out, ":", 2)[0]
	if filepath.IsAbs(first) {
		t.Errorf("finding path %q should be module-relative", first)
	}
}

func TestExitUsage(t *testing.T) {
	code, _, errb := runCmd(t, "-check", "nosuchanalyzer")
	if code != 2 {
		t.Fatalf("unknown -check: exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errb)
	}
	if code, _, _ := runCmd(t, "-definitely-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

func TestListIncludesFlowAnalyzers(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "allocfree", "errflow", "purity", "sharemut",
		"layering", "apisurface", "exhaustive"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q", name)
		}
	}
}

// TestListGolden locks -list output exactly: analyzer order, names,
// kinds, and doc one-liners are part of the tool's interface.
func TestListGolden(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.txt"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if out != string(want) {
		t.Errorf("-list output differs from golden testdata/list.txt:\ngot:\n%s\nwant:\n%s", out, want)
	}
	for _, kind := range []string{"syntactic", "flow-sensitive", "interprocedural"} {
		if !strings.Contains(out, kind) {
			t.Errorf("-list output missing kind %q", kind)
		}
	}
}

// TestGraphDump smoke-tests the -graph debug dump: stats header plus
// one entry per function of the fixture package.
func TestGraphDump(t *testing.T) {
	code, out, errb := runCmd(t, "-graph", fixtureDir)
	if code != 0 {
		t.Fatalf("-graph exit = %d, want 0; stderr=%q", code, errb)
	}
	if !strings.HasPrefix(out, "callgraph: nodes=") {
		t.Errorf("-graph output missing stats header: %q", out)
	}
	if !strings.Contains(out, "sccs=") || !strings.Contains(out, "largest-scc=") {
		t.Errorf("-graph output missing SCC stats: %q", out)
	}
	// Running it twice must produce byte-identical output.
	_, again, _ := runCmd(t, "-graph", fixtureDir)
	if out != again {
		t.Error("-graph output is not deterministic across runs")
	}
}

// TestUpdateAPIRequiresFullLoad: regenerating the snapshot from a
// partial package list would silently drop every unloaded package's
// section, so the flag refuses anything but a full-module load.
func TestUpdateAPIRequiresFullLoad(t *testing.T) {
	code, _, errb := runCmd(t, "-update-api", "internal/clock")
	if code != 2 {
		t.Fatalf("-update-api with package args: exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "full-module") {
		t.Errorf("stderr = %q, want full-module refusal", errb)
	}
}

// TestJSONGolden locks the machine-readable schema: field names, module-
// relative paths, and ordering must match the checked-in golden file.
func TestJSONGolden(t *testing.T) {
	code, out, errb := runCmd(t, "-json", "-check", "determinism", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "determinism.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if out != string(want) {
		t.Errorf("-json output differs from golden testdata/determinism.json:\ngot:\n%s\nwant:\n%s", out, want)
	}
	// And it must round-trip through the report schema, call-graph
	// stats included.
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid report JSON: %v", err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("expected at least one finding in JSON output")
	}
	if rep.CallGraph.Nodes == 0 {
		t.Error("callgraph stats missing from JSON output")
	}
	for _, f := range rep.Findings {
		if f.Check == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
	}
}

// perfChecks is the hot-path contract suite: the compiler-backed
// hotpath check and the static-dispatch check.
const perfChecks = "hotpath,ifacedispatch"

// TestPerfContractsSelfCheck runs the performance-contract analyzers
// over the entire module and requires a clean tree: every
// hot-path finding must be either fixed or suppressed with a reasoned
// `//lint:allow`. It doubles as the fact-cache integration test — the
// second run must replay from cache with identical findings.
func TestPerfContractsSelfCheck(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "factcache")

	code, out1, errb := runCmd(t, "-json", "-cache-dir", cacheDir, "-check", perfChecks)
	if code != 0 {
		t.Fatalf("perf-contract self-check: exit = %d, want 0 (unsuppressed hot-path findings below)\n%s%s", code, out1, errb)
	}
	var rep1 report
	if err := json.Unmarshal([]byte(out1), &rep1); err != nil {
		t.Fatalf("self-check -json output: %v", err)
	}
	if len(rep1.Findings) != 0 {
		t.Fatalf("self-check reported %d findings, want 0: %+v", len(rep1.Findings), rep1.Findings)
	}
	if rep1.Cache == nil || !rep1.Cache.Enabled {
		t.Fatal("full-module run should consult the fact cache")
	}
	if rep1.Cache.Hits != 0 || rep1.Cache.Misses == 0 {
		t.Fatalf("cold cache: hits=%d misses=%d, want 0 hits and >0 misses", rep1.Cache.Hits, rep1.Cache.Misses)
	}

	code, out2, _ := runCmd(t, "-json", "-cache-dir", cacheDir, "-check", perfChecks)
	if code != 0 {
		t.Fatalf("cached self-check: exit = %d, want 0", code)
	}
	var rep2 report
	if err := json.Unmarshal([]byte(out2), &rep2); err != nil {
		t.Fatalf("cached -json output: %v", err)
	}
	if rep2.Cache == nil || rep2.Cache.Misses != 0 || rep2.Cache.Hits != rep1.Cache.Misses {
		t.Fatalf("warm cache: %+v, want %d hits and 0 misses", rep2.Cache, rep1.Cache.Misses)
	}
	// Everything except the hit/miss counters must replay bit-for-bit.
	rep2.Cache = rep1.Cache
	norm1, _ := json.Marshal(rep1)
	norm2, _ := json.Marshal(rep2)
	if string(norm1) != string(norm2) {
		t.Errorf("cache replay diverged from live run:\nlive: %s\ncached: %s", norm1, norm2)
	}
}

// layoutChecks is the memory-layout & data-sharing contract suite
// introduced in v6.
const layoutChecks = "structlayout,falseshare,valuecopy,presize"

// TestLayoutContractsSelfCheck runs the four memory-layout analyzers
// over the entire module and requires a clean tree: every layout
// finding must be either fixed (reordered, padded, pre-sized) or
// suppressed with a reasoned `//lint:allow`. The second run must
// replay from the fact cache with identical findings.
func TestLayoutContractsSelfCheck(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "factcache")

	code, out1, errb := runCmd(t, "-json", "-cache-dir", cacheDir, "-check", layoutChecks)
	if code != 0 {
		t.Fatalf("layout-contract self-check: exit = %d, want 0 (unsuppressed layout findings below)\n%s%s", code, out1, errb)
	}
	var rep1 report
	if err := json.Unmarshal([]byte(out1), &rep1); err != nil {
		t.Fatalf("self-check -json output: %v", err)
	}
	if len(rep1.Findings) != 0 {
		t.Fatalf("self-check reported %d findings, want 0: %+v", len(rep1.Findings), rep1.Findings)
	}
	if rep1.Cache == nil || !rep1.Cache.Enabled {
		t.Fatal("full-module run should consult the fact cache")
	}

	code, out2, _ := runCmd(t, "-json", "-cache-dir", cacheDir, "-check", layoutChecks)
	if code != 0 {
		t.Fatalf("cached self-check: exit = %d, want 0", code)
	}
	var rep2 report
	if err := json.Unmarshal([]byte(out2), &rep2); err != nil {
		t.Fatalf("cached -json output: %v", err)
	}
	if rep2.Cache == nil || rep2.Cache.Misses != 0 || rep2.Cache.Hits != rep1.Cache.Misses {
		t.Fatalf("warm cache: %+v, want %d hits and 0 misses", rep2.Cache, rep1.Cache.Misses)
	}
}

// TestCacheToolchainInvalidation: facts computed under one toolchain
// (compiler version + GOOS/GOARCH) must never replay under another —
// the layout analyzers' findings are shaped by the platform size
// model. Simulated by swapping the fingerprint hook between runs.
func TestCacheToolchainInvalidation(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "factcache")

	code, out, _ := runCmd(t, "-json", "-cache-dir", cacheDir, "-check", "determinism")
	if code != 0 {
		t.Fatalf("cold run: exit = %d; out=%s", code, out)
	}
	var cold report
	if err := json.Unmarshal([]byte(out), &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cache == nil || cold.Cache.Misses == 0 {
		t.Fatalf("cold run should miss, got %+v", cold.Cache)
	}

	code, out, _ = runCmd(t, "-json", "-cache-dir", cacheDir, "-check", "determinism")
	if code != 0 {
		t.Fatalf("warm run: exit = %d", code)
	}
	var warm report
	if err := json.Unmarshal([]byte(out), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache == nil || warm.Cache.Misses != 0 || warm.Cache.Hits != cold.Cache.Misses {
		t.Fatalf("same toolchain should fully hit: %+v", warm.Cache)
	}

	old := toolchainFingerprint
	toolchainFingerprint = func() string { return "go999.9 plan9/mips64" }
	defer func() { toolchainFingerprint = old }()

	code, out, _ = runCmd(t, "-json", "-cache-dir", cacheDir, "-check", "determinism")
	if code != 0 {
		t.Fatalf("post-upgrade run: exit = %d", code)
	}
	var upgraded report
	if err := json.Unmarshal([]byte(out), &upgraded); err != nil {
		t.Fatal(err)
	}
	if upgraded.Cache == nil || upgraded.Cache.Hits != 0 || upgraded.Cache.Misses != cold.Cache.Misses {
		t.Fatalf("changed toolchain must be a full miss: %+v, want 0 hits and %d misses",
			upgraded.Cache, cold.Cache.Misses)
	}
}

// TestBenchShape locks the -bench JSON schema: version tag, toolchain
// identity, top-level key order (declaration order — the file must
// diff cleanly run-over-run), and one row per analyzer in roster
// order, the v6 memory-layout rows included.
func TestBenchShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errb := runCmd(t, "-bench", path, "internal/clock")
	if code != 0 {
		t.Fatalf("-bench exit = %d; stderr=%q", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bench output is not a benchReport: %v", err)
	}
	if rep.Schema != "imclint-bench/v2" {
		t.Errorf("schema = %q, want imclint-bench/v2", rep.Schema)
	}
	if rep.GoVersion == "" || !strings.Contains(rep.Platform, "/") {
		t.Errorf("toolchain identity incomplete: goversion=%q platform=%q", rep.GoVersion, rep.Platform)
	}
	if len(rep.Analyzers) != len(lint.All) {
		t.Fatalf("bench has %d analyzer rows, roster has %d", len(rep.Analyzers), len(lint.All))
	}
	for i, a := range lint.All {
		if rep.Analyzers[i].Name != a.Name {
			t.Errorf("row %d = %q, want roster order %q", i, rep.Analyzers[i].Name, a.Name)
		}
	}
	for _, name := range strings.Split(layoutChecks, ",") {
		found := false
		for _, row := range rep.Analyzers {
			if row.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("bench rows missing v6 analyzer %q", name)
		}
	}

	// Key order is part of the contract: no maps anywhere in the shape.
	text := string(data)
	keys := []string{`"schema"`, `"goversion"`, `"platform"`, `"packages"`, `"callgraph"`, `"lockgraph"`, `"analyzers"`}
	last := -1
	for _, k := range keys {
		i := strings.Index(text, k)
		if i < 0 {
			t.Fatalf("bench output missing key %s", k)
		}
		if i < last {
			t.Errorf("key %s out of declaration order", k)
		}
		last = i
	}
}

// TestCacheDisabled: -cache=false must omit the cache report section
// and must not create the cache directory.
func TestCacheDisabled(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "factcache")
	code, out, _ := runCmd(t, "-json", "-cache=false", "-cache-dir", cacheDir, "-check", "determinism")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; out=%s", code, out)
	}
	if strings.Contains(out, "\"cache\"") {
		t.Errorf("-cache=false output still reports cache stats: %s", out)
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Errorf("-cache=false created %s (stat err=%v)", cacheDir, err)
	}
}
