package analysis

// nodeprecated keeps deprecations honest: a function or method marked
// // Deprecated: in this module is on its way out, and in-repo code has
// no excuse to use it — every new internal call site is one more thing
// the deletion has to move. (PR 8's context-free Engine wrappers lived
// here as compatibility shims until PR 25 deleted them with their last
// caller; the serving client's deprecated verbs went the same way.)
//
// The rule: non-test module code must not reference a function or
// method declared in this module whose doc comment carries the
// conventional "Deprecated:" marker. Uses inside declarations that
// are themselves deprecated are exempt (shims may layer), and test
// files are exempt (deprecated APIs must stay tested until removed).
// A non-deprecated XContext calling a deprecated X is a use like any
// other: the wrapper that replaces a deprecated function must not be
// built on it.
//
// Cross-package detection works on a module-wide prescan the driver
// supplies (Pass.Deprecated), keyed by deprecatedKey so identity
// survives the loader's two type universes.

import (
	"go/ast"
	"go/types"
)

// AnalyzerNodeprecated is the nodeprecated analyzer.
var AnalyzerNodeprecated = &Analyzer{
	Name: "nodeprecated",
	Doc: "bans in-repo (non-test) use of this module's // Deprecated: " +
		"functions and methods",
	Run: runNodeprecated,
}

// deprecatedKey canonicalises a function or method for the
// module-wide deprecated set: "pkgpath.Func" or "pkgpath.Recv.Method"
// (pointer receivers stripped).
func deprecatedKey(pkgPath, recvName, funcName string) string {
	if recvName == "" {
		return pkgPath + "." + funcName
	}
	return pkgPath + "." + recvName + "." + funcName
}

// deprecatedKeyForObj derives the key for a resolved function object.
func deprecatedKeyForObj(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	recvName := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recvName = named.Obj().Name()
		}
	}
	return deprecatedKey(pkg.Path(), recvName, fn.Name())
}

// CollectDeprecated scans parsed files of one package for
// // Deprecated: function and method declarations, adding their keys
// to out. The driver runs it over every module package; the fixture
// runner over the fixture package.
func CollectDeprecated(pkgPath string, files []*ast.File, out map[string]bool) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !isDeprecatedDoc(fn.Doc) {
				continue
			}
			recvName := ""
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				t := fn.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
					t = idx.X
				}
				if id, ok := t.(*ast.Ident); ok {
					recvName = id.Name
				}
			}
			out[deprecatedKey(pkgPath, recvName, fn.Name.Name)] = true
		}
	}
}

func runNodeprecated(pass *Pass) error {
	if len(pass.Deprecated) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isDeprecatedDoc(fn.Doc) {
				continue // shims may layer on shims
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if key := deprecatedKeyForObj(fn); key != "" && pass.Deprecated[key] {
					pass.Reportf(id.Pos(), "use of deprecated %s (see its Deprecated: note for the replacement)", fn.Name())
				}
				return true
			})
		}
	}
	return nil
}
