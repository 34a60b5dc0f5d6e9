package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `// want "substr"` golden-diagnostic annotations in
// fixture sources.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// loadFixture loads one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// wantsIn extracts line → expected-substring annotations from every
// file of the fixture.
func wantsIn(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("read fixture %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", filename, i+1)
				out[key] = append(out[key], m[1])
			}
		}
	}
	return out
}

// TestAnalyzerFixtures runs every analyzer against its golden fixture
// package: each `// want "substr"` line must produce exactly one
// matching diagnostic, and no unannotated line may fire.
func TestAnalyzerFixtures(t *testing.T) {
	fixtures := map[string]*Analyzer{
		"determinism":  Determinism,
		"floatcompare": FloatCompare,
		"seedplumb":    SeedPlumb,
		"ctxplumb":     CtxPlumb,
		"allocfree":    AllocFree,
		"structlayout": StructLayout,
		"falseshare":   FalseShare,
		"valuecopy":    ValueCopy,
		"presize":      Presize,
	}
	// layering and apisurface need a whole Program (contract file, API
	// snapshot) rather than a bare fixture package; lockheld, hotpath
	// and ifacedispatch need call-graph nodes and effect summaries.
	// Their fixture coverage lives in interproc_test.go,
	// concurrency_test.go, and perfcontract_test.go. Everything else
	// must have a golden fixture here.
	programOnly := map[string]bool{
		"layering": true, "apisurface": true,
		"lockheld": true, "hotpath": true, "ifacedispatch": true,
	}
	if len(fixtures)+len(programOnly) != len(All) {
		t.Fatalf("fixture table covers %d analyzers (+%d program-level), suite has %d",
			len(fixtures), len(programOnly), len(All))
	}
	for _, a := range All {
		if fixtures[a.Name] == nil && !programOnly[a.Name] {
			t.Fatalf("analyzer %s has neither a fixture nor program-level coverage", a.Name)
		}
	}
	for name, analyzer := range fixtures {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // fixtures load into independent packages
			pkg := loadFixture(t, name)
			matchWants(t, wantsIn(t, pkg), Run(pkg, []*Analyzer{analyzer}))
		})
	}
}

// TestAllowSuppression spot-checks that the fixture's //lint:allow line
// is genuinely a violation that only the escape hatch silences.
func TestAllowSuppression(t *testing.T) {
	pkg := loadFixture(t, "determinism")
	var suppressed *Reporter
	// Re-run with a reporter whose allow index is empty: the sanctioned
	// time.Now must now surface, proving suppression (not blindness).
	bare := &Reporter{pkg: pkg, allow: map[string]map[int][]*allowComment{}}
	Determinism.Run(pkg, bare)
	full := NewReporter(pkg)
	Determinism.Run(pkg, full)
	if len(bare.Diagnostics()) != len(full.Diagnostics())+1 {
		t.Fatalf("allow comment should suppress exactly one diagnostic: bare=%d full=%d",
			len(bare.Diagnostics()), len(full.Diagnostics()))
	}
	_ = suppressed
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in     string
		checks []string
		reason string
		legacy bool
		ok     bool
	}{
		{"//lint:allow determinism: the one sanctioned clock read", []string{"determinism"}, "the one sanctioned clock read", false, true},
		{"//lint:allow determinism floatcompare: two checks", []string{"determinism", "floatcompare"}, "two checks", false, true},
		{"//lint:allow determinism", []string{"determinism"}, "", false, true},
		{"// lint:allow determinism — legacy separator", []string{"determinism"}, "legacy separator", true, true},
		{"//lint:allow determinism -- legacy separator", []string{"determinism"}, "legacy separator", true, true},
		{"//lint:allowother", nil, "", false, false},
		{"//lint:allow", nil, "", false, false},
		{"//lint:allow : reason but no check", nil, "", false, false},
		{"// plain comment", nil, "", false, false},
	}
	for _, c := range cases {
		checks, reason, legacy, ok := parseAllow(c.in)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if fmt.Sprint(checks) != fmt.Sprint(c.checks) {
			t.Errorf("parseAllow(%q) checks = %v, want %v", c.in, checks, c.checks)
		}
		if reason != c.reason {
			t.Errorf("parseAllow(%q) reason = %q, want %q", c.in, reason, c.reason)
		}
		if legacy != c.legacy {
			t.Errorf("parseAllow(%q) legacy = %v, want %v", c.in, legacy, c.legacy)
		}
	}
}

// TestSuppressionHygiene exercises the escape-hatch police: stale
// allows, missing reasons, legacy separators, and unknown checks are
// reported; a live, well-formed allow is not.
func TestSuppressionHygiene(t *testing.T) {
	pkg := loadFixture(t, "suppression")
	matchWants(t, wantsIn(t, pkg), Run(pkg, []*Analyzer{Determinism}))
}

// TestDirectiveHygiene: an //imc: directive with an unknown name, or a
// known one outside the doc comment of the declaration kind it applies
// to, is reported; correctly placed directives are not.
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, "directives")
	matchWants(t, wantsIn(t, pkg), Run(pkg, nil))
}

// TestAnalyzersFor checks the driver's per-package gating.
func TestAnalyzersFor(t *testing.T) {
	names := func(as []*Analyzer) string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return strings.Join(out, ",")
	}
	cases := []struct {
		path string
		want string
	}{
		{"imc", "determinism,floatcompare,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/graph", "determinism,floatcompare,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/ric", "determinism,floatcompare,seedplumb,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/maxr", "determinism,floatcompare,seedplumb,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/clock", "floatcompare,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/expt", "determinism,floatcompare,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/internal/serve", "determinism,floatcompare,ctxplumb,allocfree,layering,apisurface,lockheld,hotpath,ifacedispatch,structlayout,falseshare,valuecopy,presize"},
		{"imc/cmd/imcrun", "layering"},
		{"imc/examples/quickstart", "layering"},
	}
	for _, c := range cases {
		if got := names(AnalyzersFor("imc", c.path, All)); got != c.want {
			t.Errorf("AnalyzersFor(%s) = %s, want %s", c.path, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	as, ok := ByName("determinism, lockheld")
	if !ok || len(as) != 2 || as[0].Name != "determinism" || as[1].Name != "lockheld" {
		t.Fatalf("ByName = %v, %v", as, ok)
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName accepted unknown analyzer")
	}
}
