//go:build !race

package codetomo_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations that only their own
// package's tests use, each with the test that needs it. Keys are
// "pkgpath.Name" or "pkgpath.Type.Method".
var exportAllowlist = map[string]string{
	"codetomo/internal/compile.Meta.PathCycles": "the path-cycle oracle of TestTimingModelMatchesMeasurement, " +
		"TestTimingModelWithBranches, TestTimingModelHoldsUnderOptimizations and TestPGOTimingModelExact",
}

// TestExportsHaveCallers type-checks every package of the module and of
// perfbench, with their tests, and fails on an exported package-level name
// or method that nothing uses outside its own package's tests: no non-test
// file anywhere and no other package's test. Two kinds of method count as
// used without being named: one through which its type satisfies an
// interface that non-test code names, and a String, Error, Format,
// GoString, MarshalJSON or MarshalText method of a type handed to an
// interface parameter, which fmt and encoding/json look for. Struct fields
// are not checked: JSON encoding reads them. The race detector adds
// nothing to a type check, so the test is built without it and verify.sh
// runs it in its non-race step.
func TestExportsHaveCallers(t *testing.T) {
	s := newUseScan(t)
	for _, key := range s.unused() {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported, but nothing outside its own package's tests uses it", key)
		}
	}
	for key := range exportAllowlist {
		if s.declared[key] == nil {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		}
	}
}

const modulePath = "codetomo"

// A useScan type-checks the module's packages as go test builds them: each
// package alone for its importers, with its in-package tests for those
// tests, and its external tests against that test variant, with every
// package between the two checked again. It records which exported module
// objects are used outside their own package's tests.
type useScan struct {
	t        *testing.T
	fset     *token.FileSet
	std      types.Importer
	bps      map[string]*build.Package // module import path -> package
	plain    map[string]*types.Package
	called   map[string]bool // object key -> used outside its package's tests
	declared map[string]types.Object
	ifaces   []*types.Interface
}

func newUseScan(t *testing.T) *useScan {
	s := &useScan{t: t, fset: token.NewFileSet(), bps: map[string]*build.Package{},
		plain: map[string]*types.Package{}, called: map[string]bool{}, declared: map[string]types.Object{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		imp := modulePath
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		s.bps[imp] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.std = importer.ForCompiler(s.fset, "gc", s.stdExports())
	paths := make([]string, 0, len(s.bps))
	for p := range s.bps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		prime, err := s.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		bp := s.bps[p]
		if len(bp.TestGoFiles) > 0 {
			prime = s.check(p, bp.GoFiles, bp.TestGoFiles, s, true)
		}
		if len(bp.XTestGoFiles) > 0 {
			ti := &testImporter{s: s, under: p, prime: prime, pkgs: map[string]*types.Package{}}
			s.check(p+"_test", nil, bp.XTestGoFiles, ti, true)
		}
	}
	return s
}

// stdExports finds the export data of every standard package the module
// imports with one go list call, and returns a lookup over it.
func (s *useScan) stdExports() importer.Lookup {
	set := map[string]bool{}
	for _, bp := range s.bps {
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, imp := range imps {
				if s.bps[imp] == nil {
					set[imp] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for imp := range set {
		args = append(args, imp)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		s.t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	}
}

// Import returns a module package type-checked without its tests, or a
// standard package from its export data.
func (s *useScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.plain[path]; ok {
		return pkg, nil
	}
	bp := s.bps[path]
	if bp == nil {
		return s.std.Import(path)
	}
	pkg := s.check(path, bp.GoFiles, nil, s, true)
	s.plain[path] = pkg
	return pkg, nil
}

// dependsOn reports whether module package path imports under, directly
// or not, outside its tests.
func (s *useScan) dependsOn(path, under string) bool {
	bp := s.bps[path]
	if bp == nil {
		return false
	}
	for _, imp := range bp.Imports {
		if imp == under || s.dependsOn(imp, under) {
			return true
		}
	}
	return false
}

// A testImporter serves an external test package: its package under test
// with the in-package tests, and every package that imports that one
// type-checked again against it, as go test recompiles them.
type testImporter struct {
	s     *useScan
	under string
	prime *types.Package
	pkgs  map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.under {
		return ti.prime, nil
	}
	if !ti.s.dependsOn(path, ti.under) {
		return ti.s.Import(path)
	}
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	pkg := ti.s.check(path, ti.s.bps[path].GoFiles, nil, ti, false)
	ti.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks the files and test files of one package variant and,
// if record is set, records what they use and declare.
func (s *useScan) check(path string, files, tests []string, imp types.Importer, record bool) *types.Package {
	dir := s.bps[strings.TrimSuffix(path, "_test")].Dir
	var parsed []*ast.File
	isTest := map[*token.File]bool{}
	for i, name := range append(append([]string(nil), files...), tests...) {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			s.t.Fatal(err)
		}
		parsed = append(parsed, f)
		isTest[s.fset.File(f.Pos())] = i >= len(files)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, parsed, info)
	if err != nil {
		s.t.Fatalf("type-checking %s: %v", path, err)
	}
	if record {
		s.record(pkg, info, parsed, func(n ast.Node) bool { return isTest[s.fset.File(n.Pos())] }, len(tests) == 0)
	}
	return pkg
}

// record collects a package variant's uses of module objects, named or
// reached through fmt and encoding/json, and, from a package without tests,
// its exported declarations (a main package has none that another package
// could use) and the interfaces its code names.
func (s *useScan) record(pkg *types.Package, info *types.Info, files []*ast.File, inTest func(ast.Node) bool, plain bool) {
	self := strings.TrimSuffix(pkg.Path(), "_test")
	for id, obj := range info.Uses {
		if key := objKey(obj); key != "" && (!inTest(id) || obj.Pkg().Path() != self) {
			s.called[key] = true
		}
	}
	s.addBoxedArgs(self, info, files, inTest)
	if !plain {
		return
	}
	for _, obj := range info.Defs {
		if obj == nil {
			continue
		}
		if tn, ok := obj.(*types.TypeName); ok {
			s.addIfaces(tn.Type())
		}
		if key := objKey(obj); key != "" && obj.Exported() && pkg.Name() != "main" {
			s.declared[key] = obj
		}
	}
	for _, tv := range info.Types {
		s.addIfaces(tv.Type)
	}
}

// addBoxedArgs records, for every call in files, the dynamic methods of the
// types the call passes as interface values, converted or bound to an
// interface parameter.
func (s *useScan) addBoxedArgs(self string, info *types.Info, files []*ast.File, inTest func(ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			boxed := func(arg ast.Expr) {
				s.addBoxed(info.Types[arg].Type, self, inTest(call), map[types.Type]bool{})
			}
			fun := info.Types[call.Fun]
			if fun.IsType() {
				if types.IsInterface(fun.Type) && len(call.Args) == 1 {
					boxed(call.Args[0])
				}
				return true
			}
			sig, ok := fun.Type.Underlying().(*types.Signature)
			if !ok || sig.Params().Len() == 0 {
				return true
			}
			params := sig.Params()
			for i, arg := range call.Args {
				pt := params.At(min(i, params.Len()-1)).Type()
				if sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid() {
					pt = pt.(*types.Slice).Elem()
				}
				if types.IsInterface(pt) {
					boxed(arg)
				}
			}
			return true
		})
	}
}

// dynamicMethods are the methods that fmt and encoding/json look for on
// any value they are handed.
var dynamicMethods = []string{"String", "Error", "Format", "GoString", "MarshalJSON", "MarshalText"}

// addBoxed counts as used the dynamic methods of a module type held in an
// interface value, and of the types it holds in its elements and exported
// fields, which fmt and encoding/json reach by reflection, unless the
// value is boxed in its own package's tests.
func (s *useScan) addBoxed(t types.Type, self string, test bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if key := objKey(named.Origin().Obj()); key != "" && (!test || named.Obj().Pkg().Path() != self) {
			for _, m := range dynamicMethods {
				s.called[key+"."+m] = true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		s.addBoxed(u.Elem(), self, test, seen)
	case *types.Slice:
		s.addBoxed(u.Elem(), self, test, seen)
	case *types.Array:
		s.addBoxed(u.Elem(), self, test, seen)
	case *types.Map:
		s.addBoxed(u.Key(), self, test, seen)
		s.addBoxed(u.Elem(), self, test, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if u.Field(i).Exported() {
				s.addBoxed(u.Field(i).Type(), self, test, seen)
			}
		}
	}
}

// objKey names an object as the allowlist does, or returns "" for an
// object that is not a package-level name or a method of a module package.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil || obj.Pkg().Path() != modulePath && !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named, ok := deref(recv.Type()).(*types.Named)
			if !ok {
				return "" // an interface method
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// addIfaces collects, once each, the interfaces with methods that t is or
// that t's parameters, results or elements are.
func (s *useScan) addIfaces(t types.Type) {
	switch t := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.addIfaces(tup.At(i).Type())
			}
		}
	case *types.Slice:
		s.addIfaces(t.Elem())
	case *types.Pointer:
		s.addIfaces(t.Elem())
	case *types.Map:
		s.addIfaces(t.Elem())
	case *types.Chan:
		s.addIfaces(t.Elem())
	default:
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		for _, have := range s.ifaces {
			if types.Identical(have, it) {
				return
			}
		}
		s.ifaces = append(s.ifaces, it)
	}
}

// unused returns, sorted, every declared export that nothing uses outside
// its own package's tests, methods that satisfy an interface excepted.
func (s *useScan) unused() []string {
	var out []string
	for key, obj := range s.declared {
		if !s.called[key] && !s.satisfiesInterface(obj) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// satisfiesInterface reports whether obj is a method through which its
// type, or a pointer to it, implements a collected interface.
func (s *useScan) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	t := deref(fn.Type().(*types.Signature).Recv().Type())
	for _, it := range s.ifaces {
		if hasMethod(it, fn.Name()) && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
