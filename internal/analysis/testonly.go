package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Testonly flags a package-level declaration or method in a non-test
// file that no non-test file in the module refers to: production code
// only tests keep alive, which staticcheck's U1000 cannot see. Every
// linted package is a user (benchmark/ and cmd/* under ./...); a
// reference from inside the declaration itself or from a method's
// receiver is not. main, init, and methods that satisfy an interface
// the module's code mentions (as a type, or in the signature of a
// function it uses) or one the standard library finds implicitly are
// never flagged.
var Testonly = &Analyzer{
	Name:      "testonly",
	Doc:       "flag production declarations and methods that only _test.go files refer to",
	RunModule: runTestonly,
}

// implicitInterfaces are the standard interfaces a value satisfies
// without the module naming them: fmt and the encoders find them by
// type assertion.
var implicitInterfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

func runTestonly(passes []*Pass) error {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	var addIfaces func(t types.Type)
	addIfaces = func(t types.Type) {
		if sig, ok := t.(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					addIfaces(tuple.At(i).Type())
				}
			}
		} else if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIfaces(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addImplicit func(pkg *types.Package)
	addImplicit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range implicitInterfaces[pkg.Path()] {
			// Export data for an indirect import holds only what its
			// importers need, so the name may be absent.
			if obj := pkg.Scope().Lookup(name); obj != nil {
				addIfaces(obj.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addImplicit(imp)
		}
	}

	for _, pass := range passes {
		addImplicit(pass.Pkg)
		for _, tv := range pass.TypesInfo.Types {
			addIfaces(tv.Type)
		}
		forProductionDecls(pass, func(decl ast.Decl, names []*ast.Ident) {
			markUses(pass, decl, names, used)
		})
	}
	for _, pass := range passes {
		forProductionDecls(pass, func(_ ast.Decl, names []*ast.Ident) {
			for _, id := range names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil && !used[obj] && !exempt(obj, ifaces) {
					pass.Reportf(id.Pos(), "%s has no reference outside _test.go files: delete it, move it into a _test.go file, or //gcslint:allow testonly with a reason", displayName(obj))
				}
			}
		})
	}
	return nil
}

// forProductionDecls calls f for every top-level declaration in the
// pass's non-test files, with the names it declares.
func forProductionDecls(pass *Pass, f func(ast.Decl, []*ast.Ident)) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			var names []*ast.Ident
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								names = append(names, id)
							}
						}
					}
				}
			}
			f(decl, names)
		}
	}
}

// markUses records every object decl refers to, other than the ones it
// declares itself. A method's receiver is skipped, so a type is not
// used merely by having methods.
func markUses(pass *Pass, decl ast.Decl, names []*ast.Ident, used map[types.Object]bool) {
	self := map[types.Object]bool{}
	for _, id := range names {
		self[pass.TypesInfo.Defs[id]] = true
	}
	nodes := []ast.Node{decl}
	if fn, ok := decl.(*ast.FuncDecl); ok {
		nodes = []ast.Node{fn.Type, fn.Body}
	}
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := pass.TypesInfo.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !self[obj] {
					used[obj] = true
				}
			}
			return true
		})
	}
}

// exempt reports whether obj is out of the rule's reach: main, init, or
// a method that some interface in ifaces can dispatch to.
func exempt(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name() == "main" || fn.Name() == "init"
	}
	t := derefType(recv.Type())
	for it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil &&
			(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

// displayName is obj's name, qualified by its receiver type for a method.
func displayName(obj types.Object) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(derefType(sig.Recv().Type()), func(*types.Package) string { return "" }) + "." + obj.Name()
	}
	return obj.Name()
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
