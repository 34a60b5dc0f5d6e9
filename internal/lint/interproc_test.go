package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadProgram loads fixture packages through one loader and assembles
// the interprocedural Program over them — what the driver does for real
// runs, scaled down to testdata.
func loadProgram(t *testing.T, fullModule bool, names ...string) *Program {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	patterns := make([]string, len(names))
	for i, n := range names {
		patterns[i] = filepath.Join("internal", "lint", "testdata", "src", n)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", names, err)
	}
	if len(pkgs) != len(names) {
		t.Fatalf("Load(%v): got %d packages, want %d", names, len(pkgs), len(names))
	}
	return NewProgram(loader.ModulePath, loader.ModuleDir, pkgs, fullModule)
}

// progPkg finds a loaded package by path suffix.
func progPkg(t *testing.T, prog *Program, suffix string) *Package {
	t.Helper()
	for _, pkg := range prog.Packages {
		if strings.HasSuffix(pkg.Path, suffix) {
			return pkg
		}
	}
	t.Fatalf("no loaded package with suffix %q", suffix)
	return nil
}

// nodeNamed finds a call-graph node by display-name suffix.
func nodeNamed(t *testing.T, prog *Program, suffix string) *FuncNode {
	t.Helper()
	for _, n := range prog.Graph.Nodes {
		if strings.HasSuffix(n.Name(), suffix) {
			return n
		}
	}
	t.Fatalf("no call-graph node with suffix %q", suffix)
	return nil
}

// matchWants compares diagnostics against `// want "substr"` lines.
func matchWants(t *testing.T, wants map[string][]string, diags []Diagnostic) {
	t.Helper()
	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		subs, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		found := false
		for _, sub := range subs {
			if strings.Contains(d.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("diagnostic at %s does not match any want %q: %s", key, subs, d.Message)
		}
		matched[key]++
	}
	for key, subs := range wants {
		if matched[key] != len(subs) {
			t.Errorf("%s: want %d diagnostic(s) matching %q, got %d", key, len(subs), subs, matched[key])
		}
	}
}

// TestCallGraphTransitiveFixture pins the graph the transitive fixture
// produces: node and edge counts, cross-package resolution, summary
// effects, and byte-identical dumps across independent builds.
func TestCallGraphTransitiveFixture(t *testing.T) {
	prog := loadProgram(t, false, "transitive", "transitive/dep")
	stats := prog.Graph.Stats()
	want := CallGraphStats{Nodes: 7, Edges: 5, DynamicSites: 0, SCCs: 7, LargestSCC: 1}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}

	// Cross-package edges resolve despite each package type-checking in
	// its own universe (the byName keying).
	hot := nodeNamed(t, prog, "transitive.Hot")
	foundLevel1 := false
	for _, e := range hot.Calls {
		if e.Callee != nil && strings.HasSuffix(e.Callee.Name(), "dep.Level1") {
			foundLevel1 = true
		}
	}
	if !foundLevel1 {
		t.Error("Hot has no resolved edge to dep.Level1")
	}

	// Summary lattice: level2 allocates locally, Level1 only inherits.
	level1 := nodeNamed(t, prog, "dep.Level1")
	if level1.Summary.Effects&EffAlloc == 0 {
		t.Error("dep.Level1 should inherit EffAlloc from level2")
	}
	if ev := level1.Summary.EvidenceFor(EffAlloc); ev == nil || ev.Via == nil {
		t.Error("dep.Level1 has no local allocation; its EffAlloc evidence must come through a callee")
	}
	level2 := nodeNamed(t, prog, "dep.level2")
	if ev := level2.Summary.EvidenceFor(EffAlloc); ev == nil || ev.Via != nil {
		t.Error("dep.level2 calls make; its EffAlloc evidence must be local")
	}
	if sum := nodeNamed(t, prog, "dep.Sum"); sum.Summary.Effects != 0 {
		t.Errorf("dep.Sum effects = %v, want none", sum.Summary.Effects)
	}

	var a, b strings.Builder
	prog.Graph.Dump(&a)
	loadProgram(t, false, "transitive", "transitive/dep").Graph.Dump(&b)
	if a.String() != b.String() {
		t.Error("call-graph dump differs across independent builds")
	}
}

// TestTransitiveEnforcement is the acceptance fixture: an //imc:hotpath
// function calling an unannotated helper that allocates two frames down
// must be flagged with the full call chain; boundaries and clean chains
// must not fire.
func TestTransitiveEnforcement(t *testing.T) {
	prog := loadProgram(t, false, "transitive", "transitive/dep")
	pkg := progPkg(t, prog, "src/transitive")
	diags := Run(pkg, []*Analyzer{AllocFree})
	matchWants(t, wantsIn(t, pkg), diags)

	chain := false
	for _, d := range diags {
		if strings.Contains(d.Message, "Hot → ") &&
			strings.Contains(d.Message, "dep.Level1 → ") &&
			strings.Contains(d.Message, "(calls make at dep.go:") {
			chain = true
		}
	}
	if !chain {
		t.Error("no finding prints the full Hot → Level1 → level2 chain")
	}

	dep := progPkg(t, prog, "transitive/dep")
	if depDiags := Run(dep, []*Analyzer{AllocFree}); len(depDiags) != 0 {
		t.Errorf("dep package should be clean, got %v", depDiags)
	}
}

// TestLayeringFixture checks the three finding shapes — upward import,
// import of an uncovered package, and an uncovered package itself — and
// that a contract-respecting package stays silent.
func TestLayeringFixture(t *testing.T) {
	prog := loadProgram(t, false, "layercheck/a", "layercheck/b", "layercheck/c", "layercheck/d")
	prog.LayersPath = filepath.Join(prog.ModuleDir,
		"internal", "lint", "testdata", "src", "layercheck", "layers.txt")
	for _, pkg := range prog.Packages {
		matchWants(t, wantsIn(t, pkg), Run(pkg, []*Analyzer{Layering}))
	}
}

// TestLayeringMissingContract: an unreadable contract is itself a
// finding, not a silent pass.
func TestLayeringMissingContract(t *testing.T) {
	prog := loadProgram(t, false, "layercheck/d")
	prog.LayersPath = filepath.Join(t.TempDir(), "absent.txt")
	diags := Run(prog.Packages[0], []*Analyzer{Layering})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "cannot load layering contract") {
		t.Errorf("diags = %v, want one cannot-load finding", diags)
	}
}

// TestParseLayers covers the contract grammar: globs, the root package,
// comments, and the rejected shapes.
func TestParseLayers(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	lc, err := parseLayers(write("ok.txt",
		"# comment\nlayer internal/bitset .\nlayer internal/graph\nlayer cmd/* examples/*\n"))
	if err != nil {
		t.Fatalf("parseLayers: %v", err)
	}
	for _, c := range []struct {
		rel   string
		layer int
		ok    bool
	}{
		{"internal/bitset", 0, true},
		{".", 0, true},
		{"internal/graph", 1, true},
		{"cmd/imcrun", 2, true},      // glob: immediate child
		{"cmd/imcrun/sub", 0, false}, // glob does not reach grandchildren
		{"internal/ric", 0, false},
	} {
		layer, ok := lc.layerOf(c.rel)
		if ok != c.ok || (ok && layer != c.layer) {
			t.Errorf("layerOf(%q) = %d,%v want %d,%v", c.rel, layer, ok, c.layer, c.ok)
		}
	}

	for name, content := range map[string]string{
		"empty.txt":   "# nothing but comments\n",
		"badline.txt": "internal/graph\n",
		"dup.txt":     "layer internal/graph internal/graph\n",
		"dupglob.txt": "layer cmd/*\nlayer cmd/*\n",
		"bare.txt":    "layer\n",
	} {
		if _, err := parseLayers(write(name, content)); err == nil {
			t.Errorf("parseLayers(%s) accepted malformed contract", name)
		}
	}
}

// TestAPISurfaceRoundTrip: a snapshot freshly written by
// WriteAPISnapshot must verify clean against the same program, and its
// rendering must drop parameter names and unexported members.
func TestAPISurfaceRoundTrip(t *testing.T) {
	prog := loadProgram(t, true, "apicheck")
	data := WriteAPISnapshot(prog)
	for _, want := range []string{
		"package internal/lint/testdata/src/apicheck\n",
		"func Clamp: func(float64, float64, float64) float64\n",
		"method (*Counter).Add: func(int)\n",
		"method (Weight).Scale: func(float64) Weight\n",
		"type Counter: struct{N int}\n",
		"type Weight: float64\n",
		"var Version: string\n",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot missing %q\n%s", want, data)
		}
	}
	for _, reject := range []string{"value", "hidden", "internal()"} {
		if strings.Contains(string(data), reject) {
			t.Errorf("snapshot leaks %q (parameter name or unexported member)", reject)
		}
	}

	path := filepath.Join(t.TempDir(), "api.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	prog.APISnapPath = path
	if diags := Run(progPkg(t, prog, "apicheck"), []*Analyzer{APISurface}); len(diags) != 0 {
		t.Errorf("round-trip produced findings: %v", diags)
	}
}

// TestAPISurfaceDrift mutates a clean snapshot four ways — signature
// change, unapproved addition, removal, vanished package — and expects
// each to be reported.
func TestAPISurfaceDrift(t *testing.T) {
	prog := loadProgram(t, true, "apicheck")
	data := string(WriteAPISnapshot(prog))

	mutated := strings.Replace(data,
		"func Clamp: func(float64, float64, float64) float64",
		"func Clamp: func(float64) float64", 1)
	mutated = strings.Replace(mutated, "var Version: string\n", "", 1)
	mutated += "func Gone: func()\n"
	mutated += "\npackage internal/vanished\nfunc X: func()\n"
	path := filepath.Join(t.TempDir(), "api.snap")
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	prog.APISnapPath = path

	diags := Run(progPkg(t, prog, "apicheck"), []*Analyzer{APISurface})
	for _, want := range []string{
		`exported API changed: "func Clamp" was "func(float64) float64", now "func(float64, float64, float64) float64"`,
		`new exported API "var Version"`,
		`exported API removed: "func Gone"`,
		`package internal/vanished in the API snapshot no longer exists`,
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding matches %q; got %v", want, diags)
		}
	}
	if len(diags) != 4 {
		t.Errorf("got %d findings, want 4: %v", len(diags), diags)
	}
}

// TestAPISurfaceMissingSection: a package with no snapshot section is
// one finding, and the stale section surfaces once per program.
func TestAPISurfaceMissingSection(t *testing.T) {
	prog := loadProgram(t, true, "apicheck")
	data := strings.Replace(string(WriteAPISnapshot(prog)),
		"package internal/lint/testdata/src/apicheck",
		"package internal/lint/testdata/src/renamed", 1)
	path := filepath.Join(t.TempDir(), "api.snap")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	prog.APISnapPath = path

	diags := Run(progPkg(t, prog, "apicheck"), []*Analyzer{APISurface})
	var noSection, vanished bool
	for _, d := range diags {
		if strings.Contains(d.Message, "has no section in the API snapshot") {
			noSection = true
		}
		if strings.Contains(d.Message, "internal/lint/testdata/src/renamed in the API snapshot no longer exists") {
			vanished = true
		}
	}
	if !noSection || !vanished {
		t.Errorf("missing-section findings incomplete (noSection=%v vanished=%v): %v",
			noSection, vanished, diags)
	}
}
