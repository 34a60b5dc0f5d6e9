package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"imc/internal/lint"
)

// cacheSchemaVersion tags every cache file. Bump it whenever the entry
// shape, the finding schema, or any analyzer's semantics change in a
// way the content hash cannot see (the analyzer source is part of the
// module, so ordinary analyzer edits invalidate the cache by hash).
const cacheSchemaVersion = "imclint-cache/v1"

// cacheStats is the hit/miss accounting surfaced in the -json report.
type cacheStats struct {
	Enabled bool `json:"enabled"`
	Hits    int  `json:"hits"`
	Misses  int  `json:"misses"`
}

// cacheEntry is one package's cached facts: the findings the analyzers
// produced.
type cacheEntry struct {
	Schema   string    `json:"schema"`
	Key      string    `json:"key"`
	Package  string    `json:"package"`
	Findings []finding `json:"findings"`
}

// cacheManifest records a complete full-module run: the package list in
// load order plus the graph stats the report needs. When the manifest
// key still matches, imclint can replay the entire report without
// parsing or type-checking a single file.
type cacheManifest struct {
	Schema    string              `json:"schema"`
	Key       string              `json:"key"`
	Packages  []string            `json:"packages"`
	CallGraph lint.CallGraphStats `json:"callgraph"`
	LockGraph lint.LockGraphStats `json:"lockgraph"`
}

// factCache is the on-disk per-package fact cache. Keys fold in the
// cache schema, the Go toolchain version, the active analyzer roster,
// and a content hash over every analysis input in the module — so a
// hit is sound even for interprocedural analyzers, whose findings in
// one package can depend on code in any other.
type factCache struct {
	dir       string
	moduleKey string
	stats     cacheStats
}

// toolchainFingerprint identifies the toolchain the cached facts were
// computed under: compiler version plus target platform. GOOS/GOARCH
// are part of the key because build-constrained files select different
// sources per platform and the go/types size model the layout
// analyzers consult is platform-shaped — facts from one toolchain must
// never replay under another. A variable so tests can simulate a
// toolchain upgrade without installing one.
var toolchainFingerprint = func() string {
	return runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
}

// openCache hashes the module's analysis inputs and returns a handle.
// checksKey names the active analyzer roster (comma-joined, canonical
// order) so `-check determinism` and a full run never share entries.
func openCache(dir, moduleDir, checksKey string) (*factCache, error) {
	mh, err := moduleHash(moduleDir)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s", cacheSchemaVersion, toolchainFingerprint(), checksKey, mh)
	return &factCache{
		dir:       dir,
		moduleKey: hex.EncodeToString(h.Sum(nil)),
		stats:     cacheStats{Enabled: true},
	}, nil
}

// moduleHash digests every file that can influence a finding: Go
// sources (suppression comments live there too), go.mod/go.sum, and
// .snap files (the apisurface analyzer diffs against a snapshot that
// is not Go source). Hashing testdata as well is deliberately
// conservative — fixture edits invalidate the cache, never the other
// way around.
func moduleHash(moduleDir string) (string, error) {
	type fileDigest struct {
		rel string
		sum [sha256.Size]byte
	}
	var files []fileDigest
	err := filepath.WalkDir(moduleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == ".imclint-cache" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".snap") &&
			name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleDir, path)
		if err != nil {
			return err
		}
		files = append(files, fileDigest{rel: filepath.ToSlash(rel), sum: sha256.Sum256(data)})
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].rel < files[j].rel })
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%x\n", f.rel, f.sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pkgKey is the cache key for one package's entry: the module key plus
// the package path. The module-wide hash is part of the key on purpose
// — a package's interprocedural findings (layering, lockorder, the
// perf contracts' transitive checks) can change when ANY package does.
func (c *factCache) pkgKey(pkgPath string) string {
	h := sha256.Sum256([]byte(c.moduleKey + "\x00" + pkgPath))
	return hex.EncodeToString(h[:])
}

// entryPath maps a package path to its cache file. The name is a hash,
// not the package path, so nested packages never collide with
// directory separators.
func (c *factCache) entryPath(pkgPath string) string {
	h := sha256.Sum256([]byte(pkgPath))
	return filepath.Join(c.dir, hex.EncodeToString(h[:12])+".json")
}

// load returns the cached findings for pkgPath if the entry exists and
// its key matches the current module state. Any read, decode, or key
// mismatch is simply a miss — the cache is an accelerator, never an
// authority.
func (c *factCache) load(pkgPath string) ([]finding, bool) {
	data, err := os.ReadFile(c.entryPath(pkgPath))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil {
		return nil, false
	}
	if e.Schema != cacheSchemaVersion || e.Package != pkgPath || e.Key != c.pkgKey(pkgPath) {
		return nil, false
	}
	return e.Findings, true
}

// store writes one package's findings. Failures are swallowed: a cache
// that cannot be written must not fail the lint run.
func (c *factCache) store(pkgPath string, findings []finding) {
	if findings == nil {
		findings = []finding{}
	}
	e := cacheEntry{
		Schema:   cacheSchemaVersion,
		Key:      c.pkgKey(pkgPath),
		Package:  pkgPath,
		Findings: findings,
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return
	}
	if os.MkdirAll(c.dir, 0o755) != nil {
		return
	}
	os.WriteFile(c.entryPath(pkgPath), append(data, '\n'), 0o644)
}

// storeManifest records a completed full-module run for replay.
func (c *factCache) storeManifest(pkgs []string, cg lint.CallGraphStats, lg lint.LockGraphStats) {
	m := cacheManifest{
		Schema:    cacheSchemaVersion,
		Key:       c.moduleKey,
		Packages:  pkgs,
		CallGraph: cg,
		LockGraph: lg,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	if os.MkdirAll(c.dir, 0o755) != nil {
		return
	}
	os.WriteFile(filepath.Join(c.dir, "manifest.json"), append(data, '\n'), 0o644)
}

// replay attempts the full-hit fast path: if the manifest matches the
// current module state and every per-package entry is intact, it
// returns the complete findings stream plus the recorded
// graph stats, and the caller can skip loading the module entirely.
func (c *factCache) replay() (*cacheManifest, []finding, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, "manifest.json"))
	if err != nil {
		return nil, nil, false
	}
	var m cacheManifest
	if json.Unmarshal(data, &m) != nil {
		return nil, nil, false
	}
	if m.Schema != cacheSchemaVersion || m.Key != c.moduleKey {
		return nil, nil, false
	}
	var all []finding
	for _, p := range m.Packages {
		fs, ok := c.load(p)
		if !ok {
			return nil, nil, false
		}
		all = append(all, fs...)
	}
	c.stats.Hits = len(m.Packages)
	return &m, all, true
}
