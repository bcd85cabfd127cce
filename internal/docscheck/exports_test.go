package docscheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// typedPackage is one package of a module, type-checked from its non-test
// files alone: what its tests declare or call is invisible to it.
type typedPackage struct {
	dir   string // relative to the module root; "." is the root package
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheck type-checks the non-test files of every package of the module
// at root (the packages `go list ./...` reports, for the host platform), in
// dependency order. Module packages import each other's checked packages,
// so an object has one identity across the module; everything else is
// imported from the compiler's export data, which `go list -export -deps`
// names (from the build cache when warm).
func typeCheck(root string) (*token.FileSet, []*typedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var own []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			own = append(own, p)
		}
	}

	fset := token.NewFileSet()
	imp := moduleImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
	}
	var pkgs []*typedPackage
	for _, p := range own {
		tp := &typedPackage{info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		tp.dir, _ = filepath.Rel(root, p.Dir)
		tp.dir = filepath.ToSlash(tp.dir)
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			tp.files = append(tp.files, f)
		}
		conf := types.Config{Importer: imp}
		if tp.pkg, err = conf.Check(p.ImportPath, fset, tp.files, tp.info); err != nil {
			return nil, nil, err
		}
		imp.checked[p.ImportPath] = tp.pkg
		pkgs = append(pkgs, tp)
	}
	return fset, pkgs, nil
}

// moduleImporter resolves a module package to the one typeCheck checked
// from source, and any other package through export data.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

// isProduct reports whether the non-test files of the package in dir are
// product code: everything but the benchmark harness and test support.
// Commands and examples count — they are the facade's callers.
func isProduct(dir string) bool {
	return dir != "benchmark" && !strings.HasPrefix(dir+"/", testSupport+"/")
}

// exportKey names an exported object as the findings and the allow-list
// do: "pkg.Name" for a package-level name, "pkg.Type.Method" for a method.
func exportKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if n := recvNamed(fn); n != nil {
			return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// recvNamed returns the named type a method is declared on, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// exportUses is what the rules read: the objects product code uses, those
// a product package other than their own uses, those the benchmark
// harness uses, and the interfaces product code uses.
type exportUses struct {
	product, outside, bench map[types.Object]bool
	ifaces                  []*types.Interface
}

// collectUses records every use in pkgs of an object outside its own
// declaration (a recursive call or a self-referential type is no use). An
// interface counts as used by the product when product code names it or
// calls one of its methods, and every interface of the standard library
// packages the product imports counts: fmt, sort, encoding/json and the
// rest call them on product values.
func collectUses(pkgs []*typedPackage) exportUses {
	u := exportUses{product: map[types.Object]bool{}, outside: map[types.Object]bool{}, bench: map[types.Object]bool{}}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			u.ifaces = append(u.ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	module := map[*types.Package]bool{}
	for _, tp := range pkgs {
		module[tp.pkg] = true
	}
	for _, tp := range pkgs {
		product := isProduct(tp.dir)
		if !product && tp.dir != "benchmark" {
			continue
		}
		if product {
			for _, dep := range tp.pkg.Imports() {
				if module[dep] {
					continue
				}
				for _, name := range dep.Scope().Names() {
					if obj, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
						addIface(obj.Type())
					}
				}
			}
		}
		own := map[types.Object]ast.Node{}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[tp.info.Defs[d.Name]] = d
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							own[tp.info.Defs[ts.Name]] = ts
						}
					}
				}
			}
		}
		for id, obj := range tp.info.Uses {
			if obj.Pkg() == nil {
				continue // a predeclared name
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if d, ok := own[obj]; ok && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			if !product {
				u.bench[obj] = true
				continue
			}
			u.product[obj] = true
			if obj.Pkg() != tp.pkg {
				u.outside[obj] = true
			}
			switch o := obj.(type) {
			case *types.TypeName:
				addIface(o.Type())
			case *types.Func:
				if recv := o.Signature().Recv(); recv != nil {
					addIface(recv.Type()) // a method of a named or unnamed interface
				}
			}
		}
	}
	return u
}

// implemented reports whether a concrete method is reached through a
// product-used interface: one with a method of fn's name that fn's type or
// its pointer implements.
func (u exportUses) implemented(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || types.IsInterface(named) {
		return false
	}
	for _, it := range u.ifaces {
		has := false
		for i := range it.NumMethods() {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// used reports whether the product uses obj; outside, a product package
// other than obj's own. A method reached through a product-used interface
// counts either way.
func (u exportUses) used(obj types.Object, outside bool) bool {
	if outside && u.outside[obj] || !outside && u.product[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	return ok && u.implemented(fn)
}

// declaredExports returns the exported package-level names of p and the
// exported methods declared on its exported named types (an interface's
// explicit methods included).
func declaredExports(p *types.Package) []types.Object {
	var out []types.Object
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			out = append(out, exportedMethods(tn.Type().(*types.Named))...)
		}
	}
	return out
}

// exportedMethods returns the exported methods declared on named.
func exportedMethods(named *types.Named) []types.Object {
	var out []types.Object
	if it, ok := named.Underlying().(*types.Interface); ok {
		for i := range it.NumExplicitMethods() {
			if m := it.ExplicitMethod(i); m.Exported() {
				out = append(out, m)
			}
		}
		return out
	}
	for i := range named.NumMethods() {
		if m := named.Method(i); m.Exported() {
			out = append(out, m)
		}
	}
	return out
}

// exposed adds to seen every named type t exposes: t itself, what its
// pointers, slices and functions name and the fields of its structs,
// transitively.
func exposed(t types.Type, seen map[types.Type]bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if seen[t] {
			return
		}
		seen[t] = true
		exposed(t.Underlying(), seen)
	case *types.Pointer:
		exposed(t.Elem(), seen)
	case *types.Slice:
		exposed(t.Elem(), seen)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tuple.Len() {
				exposed(tuple.At(i).Type(), seen)
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if f := t.Field(i); f.Exported() {
				exposed(f.Type(), seen)
			}
		}
	}
}

// testOnlyExports applies the two rules of TestNoTestOnlyExports to the
// type-checked packages of a module and returns the names that fail them,
// by exportKey.
//
// (a) An exported package-level name, or an exported method of an exported
// type, declared under internal/ outside test support needs a product use.
//
// (b) An export of the facade (the root package) and a method of a type the
// facade declares or re-exports through an alias need a product use —
// outside the facade, for the facade's own names — or a mention in the
// documentation: docs holds every identifier and every "X.Y" pair in the
// README's and ARCHITECTURE.md's code, and a method is mentioned as
// "Type.Method" under its facade name (a method the facade itself declares
// also by its bare name). A facade type that a passing facade function or
// method exposes is exempt: it comes with that API.
func testOnlyExports(pkgs []*typedPackage, docs map[string]bool) (map[string]types.Object, exportUses) {
	u := collectUses(pkgs)
	failed := map[string]types.Object{}

	var facade *types.Package
	module := map[*types.Package]bool{}
	for _, tp := range pkgs {
		module[tp.pkg] = true
		if tp.dir == "." {
			facade = tp.pkg
		}
	}
	// Rule (b): the facade's functions, variables and constants, then the
	// methods of each type it declares or re-exports, then its types.
	facadeName := map[*types.Named]string{}
	var typeNames []*types.TypeName
	kept := map[types.Type]bool{}
	if facade != nil {
		for _, name := range facade.Scope().Names() {
			obj := facade.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && n.Obj().Pkg() != nil && module[n.Obj().Pkg()] {
					facadeName[n] = name
				}
				typeNames = append(typeNames, tn)
				continue
			}
			if !u.used(obj, true) && !docs[name] {
				failed[exportKey(obj)] = obj
			} else if fn, ok := obj.(*types.Func); ok {
				exposed(fn.Signature(), kept)
			}
		}
	}
	for named, name := range facadeName {
		own := named.Obj().Pkg() == facade
		for _, m := range exportedMethods(named) {
			if !u.used(m, own) && !docs[name+"."+m.Name()] && !(own && docs[m.Name()]) {
				failed[exportKey(m)] = m
			} else {
				exposed(m.Type(), kept)
			}
		}
	}
	for _, tn := range typeNames {
		if !u.used(tn, true) && !docs[tn.Name()] && !kept[types.Unalias(tn.Type())] {
			failed[exportKey(tn)] = tn
		}
	}

	// Rule (a), for what rule (b) does not judge.
	for _, tp := range pkgs {
		if !strings.HasPrefix(tp.dir, "internal/") || !isProduct(tp.dir) {
			continue
		}
		for _, obj := range declaredExports(tp.pkg) {
			if fn, ok := obj.(*types.Func); ok {
				if _, ok := facadeName[recvNamed(fn)]; ok {
					continue
				}
			}
			if !u.used(obj, false) {
				failed[exportKey(obj)] = obj
			}
		}
	}
	return failed, u
}

// docIdentifiers returns every identifier, and every "X.Y" pair of
// adjacent identifiers in a selector, in the code spans and fenced code
// blocks of the markdown files.
func docIdentifiers(t *testing.T, paths ...string) map[string]bool {
	t.Helper()
	ids := map[string]bool{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var code []string
		inFence := false
		for _, line := range strings.Split(string(b), "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				inFence = !inFence
			case inFence:
				code = append(code, line)
			default:
				for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
				}
			}
		}
		for _, chain := range selectorRe.FindAllString(strings.Join(code, "\n"), -1) {
			parts := strings.Split(chain, ".")
			for i, p := range parts {
				ids[p] = true
				if i > 0 {
					ids[parts[i-1]+"."+p] = true
				}
			}
		}
	}
	return ids
}

var selectorRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*`)

// allowed lists the exports TestNoTestOnlyExports still lets through, each
// with the ROADMAP item that deletes it: names the benchmark harness binds
// (items 10 and 14: benchmark/ changes only in a PR of its own). The list
// may only shrink: a new test-only export is deleted, unexported or moved
// into test code instead.
var allowed = map[string]int{
	"core.MergeSkylines":      10,
	"core.MergeTopK":          10,
	"mcn.OpenDeviceOptions":   10,
	"mcn.Progressive":         10,
	"wire.DecodeResponse":     10,
	"wire.EncodePeriodResult": 10,
	"wire.EncodeResult":       10,
	"wire.MaxResponseFrame":   10,
	"wire.ToFacilities":       10,

	"index.FromGraph":                   14,
	"mcn.Network.BaselineTopK":          14,
	"mcn.Network.ResetIOStats":          14,
	"rescache.EdgeTag":                  14,
	"timedep.Network.Breakpoints":       14,
	"timedep.Network.EnableResultCache": 14,
}

// TestNoTestOnlyExports holds the product to what it uses: every exported
// name under internal/ needs a caller in product code, and every facade
// export a caller or a mention in README.md or ARCHITECTURE.md (see
// testOnlyExports for the two rules). Reference implementations and test
// conveniences belong in internal/testsupport or in _test.go files, where
// methods may be declared on the package's own types.
func TestNoTestOnlyExports(t *testing.T) {
	root := repoRoot(t)
	fset, pkgs, err := typeCheck(root)
	if err != nil {
		t.Fatal(err)
	}
	docs := docIdentifiers(t, filepath.Join(root, "README.md"), filepath.Join(root, "ARCHITECTURE.md"))
	failed, u := testOnlyExports(pkgs, docs)
	for _, key := range slices.Sorted(maps.Keys(failed)) {
		obj := failed[key]
		pos := fset.Position(obj.Pos())
		where, _ := filepath.Rel(root, pos.Filename)
		item, ok := allowed[key]
		switch {
		case !ok:
			t.Errorf("%s (%s:%d) has no use in product code: delete it, unexport it, or move it into test code", key, filepath.ToSlash(where), pos.Line)
		case !u.bench[obj]:
			t.Errorf("%s is allowed for item %d because benchmark/ binds it, which it no longer does: delete it and its entry", key, item)
		}
	}
	for key, item := range allowed {
		if _, ok := failed[key]; !ok {
			t.Errorf("allow-list entry %s (item %d) is stale: the name is gone or used; delete the entry", key, item)
		}
	}
}

// The checker's own contract, on a module built for the purpose: an
// exported function whose only caller is a _test.go file is reported, and
// an exported method reached through an interface the product calls is not.
func TestTestOnlyExportsFixture(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module fixture\n\ngo 1.23\n",
		"internal/lib/lib.go": `package lib

// Namer names things.
type Namer interface{ Name() string }

// Thing is a Namer.
type Thing struct{}

// Name implements Namer; the product calls it through Namer only.
func (Thing) Name() string { return "thing" }

// New returns a Namer.
func New() Namer { return Thing{} }

// Helper has no caller but a test.
func Helper() int { return 1 }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestHelper(t *testing.T) {
	if Helper() != 1 {
		t.Fatal("Helper")
	}
}
`,
		"cmd/app/main.go": `package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.New().Name()) }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, pkgs, err := typeCheck(root)
	if err != nil {
		t.Fatal(err)
	}
	failed, _ := testOnlyExports(pkgs, nil)
	if got := slices.Sorted(maps.Keys(failed)); !slices.Equal(got, []string{"lib.Helper"}) {
		t.Errorf("findings %v, want [lib.Helper]", got)
	}
}
