package docscheck

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// module is the module path of go.mod; an import of module+"/x" names the
// package in directory x, and module itself the root package (".").
const module = "mcn"

// imports is the package graph: for every package, by directory relative to
// the module root, the module packages its non-test files may import. It is
// the Layer map of ARCHITECTURE.md as data, read top-down: binaries and
// examples, the serving tier, the facade, the executor and result cache,
// the query algorithms, network expansion, the sources, and the leaves.
// benchmark/ is not in it: the harness measures the product and may bind
// any of it, and its imports change only with the benchmark itself.
var imports = map[string][]string{
	// Binaries and examples.
	"cmd/mcnbench":                  {"internal/bench"},
	"cmd/mcngateway":                {"internal/cluster"},
	"cmd/mcngen":                    {"."},
	"cmd/mcnquery":                  {"."},
	"cmd/mcnserve":                  {".", "internal/serve"},
	"cmd/mcnsoak":                   {".", "internal/bench", "internal/cluster", "internal/serve"},
	"examples/fleet":                {"."},
	"examples/housing":              {"."},
	"examples/logistics":            {".", "examples/logistics/paretopath"},
	"examples/logistics/paretopath": {"internal/graph", "internal/vec"},
	"examples/meetingpoint":         {"."},
	"examples/quickstart":           {"."},
	"examples/rushhour":             {"."},
	"examples/socialnet":            {"."},
	"internal/bench":                {"internal/core", "internal/gen", "internal/graph", "internal/storage", "internal/vec", "internal/wire"},

	// Serving tier: the gateway, the replica's HTTP layer and the codecs.
	"internal/cluster": {"internal/wire"},
	"internal/serve":   {".", "internal/wire"},
	"internal/wire":    {"internal/core", "internal/graph", "internal/vec"},

	// The facade, the only package that knows every source.
	".": {"internal/core", "internal/dynamic", "internal/engine", "internal/expand", "internal/flat", "internal/gen",
		"internal/graph", "internal/index", "internal/rescache", "internal/storage", "internal/timedep", "internal/vec"},

	// Execution: the executor reads whatever source its caller binds, and
	// imports none.
	"internal/engine":   {"internal/core", "internal/expand", "internal/graph", "internal/rescache", "internal/vec"},
	"internal/rescache": {"internal/core", "internal/graph", "internal/vec"},
	"internal/timedep":  {"internal/core", "internal/flat", "internal/graph", "internal/index", "internal/rescache", "internal/vec"},
	"internal/dynamic":  {"internal/core", "internal/expand", "internal/graph", "internal/vec"},

	// Algorithms over the expansion primitive.
	"internal/core":   {"internal/expand", "internal/graph", "internal/index", "internal/vec"},
	"internal/expand": {"internal/graph"},

	// Sources. They satisfy expand.Source without importing expand.
	"internal/flat":    {"internal/graph", "internal/index", "internal/vec"},
	"internal/storage": {"internal/graph", "internal/index", "internal/vec"},

	// Leaves.
	"internal/index": {"internal/graph"},
	"internal/gen":   {"internal/graph", "internal/vec"},
	"internal/graph": {"internal/vec"},
	"internal/vec":   {},

	// Test support: imported by _test.go files only.
	"internal/testsupport/chaos": {},
	"internal/testsupport/fault": {"internal/storage"},
	"internal/testsupport/lattice": {"internal/core", "internal/dynamic", "internal/expand", "internal/flat", "internal/gen",
		"internal/graph", "internal/index", "internal/storage", "internal/testsupport/testnet", "internal/timedep", "internal/vec"},
	"internal/testsupport/memnet":  {},
	"internal/testsupport/testnet": {"internal/gen", "internal/graph", "internal/vec"},

	// The documentation checks: no runtime code.
	"internal/docscheck": {},
}

// testSupport is the one directory test-only packages live under.
const testSupport = "internal/testsupport"

// goFile is one parsed Go file: its package directory relative to the
// module root, whether it is a _test.go file, and the module packages it
// imports (as directories).
type goFile struct {
	path, dir string
	test      bool
	imports   []string
}

// goFiles parses the import block of every Go file in the module, skipping
// hidden directories (VCS, build caches) and test fixtures. Build
// constraints are ignored, so a platform-specific file counts on every
// platform.
func goFiles(t *testing.T, root string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		gf := goFile{path: filepath.ToSlash(rel), dir: filepath.ToSlash(filepath.Dir(rel)), test: strings.HasSuffix(d.Name(), "_test.go")}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			switch {
			case p == module:
				gf.imports = append(gf.imports, ".")
			case strings.HasPrefix(p, module+"/"):
				gf.imports = append(gf.imports, strings.TrimPrefix(p, module+"/"))
			}
		}
		files = append(files, gf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// packageDirs returns every directory holding Go files — the packages
// `go list ./...` reports.
func packageDirs(files []goFile) map[string]bool {
	dirs := map[string]bool{}
	for _, f := range files {
		dirs[f.dir] = true
	}
	return dirs
}

// markdownSection returns the lines of the section headed exactly heading
// in the markdown file at path, up to the next heading of the same level.
func markdownSection(t *testing.T, path, heading string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	level := heading[:strings.IndexByte(heading, ' ')+1]
	var out []string
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case line == heading:
			in = true
		case in && strings.HasPrefix(line, level):
			return strings.Join(out, "\n")
		case in:
			out = append(out, line)
		}
	}
	if !in {
		t.Fatalf("%s: no %q section", filepath.Base(path), heading)
	}
	return strings.Join(out, "\n")
}

var (
	packageRefRe = regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+(?:/[a-z0-9_]+)*(?:\.go)?`)
	codeSpanRe   = regexp.MustCompile("`([^`]+)`")
)

// TestPackageGraph holds the package graph to the imports table, test
// support out of the product, and the two documents that name packages —
// ARCHITECTURE.md's Layer map and README.md's Layout — to the directory
// tree.
func TestPackageGraph(t *testing.T) {
	root := repoRoot(t)
	files := goFiles(t, root)
	dirs := packageDirs(files)

	t.Run("imports", func(t *testing.T) {
		got := map[string]map[string]bool{}
		for _, f := range files {
			if f.test || f.dir == "benchmark" {
				continue
			}
			if got[f.dir] == nil {
				got[f.dir] = map[string]bool{}
			}
			for _, imp := range f.imports {
				if !got[f.dir][imp] && !slices.Contains(imports[f.dir], imp) {
					t.Errorf("%s imports %s, an edge the package graph does not allow", f.path, imp)
				}
				got[f.dir][imp] = true
			}
		}
		for dir, allowed := range imports {
			if got[dir] == nil {
				t.Errorf("the package graph names %s, which has no non-test Go files", dir)
				continue
			}
			for _, imp := range allowed {
				if !got[dir][imp] {
					t.Errorf("the package graph allows %s → %s, which no file imports any more; delete the edge", dir, imp)
				}
			}
		}
		for dir := range got {
			if _, ok := imports[dir]; !ok {
				t.Errorf("package %s is not in the package graph; add it with its imports", dir)
			}
		}
	})

	t.Run("testsupport", func(t *testing.T) {
		for _, f := range files {
			if f.test || strings.HasPrefix(f.dir+"/", testSupport+"/") {
				continue
			}
			for _, imp := range f.imports {
				if strings.HasPrefix(imp+"/", testSupport+"/") {
					t.Errorf("%s imports %s: test support is for _test.go files", f.path, imp)
				}
			}
		}
	})

	t.Run("layer map", func(t *testing.T) {
		named := packageRefRe.FindAllString(markdownSection(t, filepath.Join(root, "ARCHITECTURE.md"), "## Layer map"), -1)
		if len(named) == 0 {
			t.Fatal("ARCHITECTURE.md Layer map names no package; the check is blind")
		}
		for _, p := range named {
			if strings.HasSuffix(p, ".go") {
				continue // a file, not a package
			}
			if !dirs[p] {
				t.Errorf("ARCHITECTURE.md Layer map names %s, which is not a package", p)
			}
		}
	})

	t.Run("readme layout", func(t *testing.T) {
		named := map[string]bool{}
		for _, m := range codeSpanRe.FindAllStringSubmatch(markdownSection(t, filepath.Join(root, "README.md"), "## Layout"), -1) {
			p := m[1]
			switch {
			case p == module:
				named["."] = true
			case p == "benchmark" || packageRefRe.FindString(p) == p:
				named[p] = true
				if !dirs[p] {
					t.Errorf("README.md Layout names %s, which is not a package", p)
				}
			}
		}
		for dir := range dirs {
			if !named[dir] {
				t.Errorf("package %s is missing from README.md Layout", dir)
			}
		}
	})
}
