package analysis

// ctxflow guards PR 5's cancellation guarantees: every request-path
// package (internal/server, internal/shard, internal/plan,
// internal/sub) threads the caller's context end to end. Two shapes
// broke that historically — minting a fresh context.Background()/TODO()
// mid-path (detaches everything downstream from the client's
// disconnect), and calling a context-free method such as
// core.RSMI.KNN from a function that has a perfectly good ctx in hand
// when the receiver offers the KNNContext form (the call can no longer
// be cancelled).
//
// Deliberate detachment points exist (a stream connection is the root
// of its requests' contexts; background maintenance loops own their
// lifetime). Those are annotated in place:
//
//	//rsmi:allow ctxflow -- <why this site must detach>
//
// Every function is checked, whatever its doc says: since PR 25 no
// deprecated compatibility wrapper is left to wrap with Background.

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxflow is the ctxflow analyzer.
var AnalyzerCtxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() and dropped-ctx engine calls " +
		"in request-path packages (internal/server, internal/shard, internal/plan, internal/sub)",
	Run:      runCtxflow,
	PkgScope: requestPathPkg,
}

// requestPathPkg limits ctxflow to the packages where PR 5's
// cancellation guarantees live.
func requestPathPkg(importPath string) bool {
	for _, p := range []string{"rsmi/internal/server", "rsmi/internal/shard", "rsmi/internal/plan", "rsmi/internal/sub"} {
		if importPath == p {
			return true
		}
	}
	return false
}

func runCtxflow(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hasCtx := funcHasCtxParam(pass, fn)
			fnName := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := typeutilCallee(pass, call)
				if callee == nil {
					return true
				}
				if isCtxConstructor(callee) {
					pass.Reportf(call.Pos(), "request path mints context.%s(); thread the caller's ctx instead", callee.Name())
					return true
				}
				if hasCtx {
					checkDroppedCtx(pass, call, callee, fnName)
				}
				return true
			})
		}
	}
	return nil
}

// funcHasCtxParam reports whether fn takes a context.Context
// parameter (by type, not by name).
func funcHasCtxParam(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.Pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isCtxConstructor reports whether fn is context.Background or
// context.TODO.
func isCtxConstructor(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// checkDroppedCtx flags a call to a context-free method M when the
// receiver also offers MContext taking a context.Context first — the
// caller had a ctx in scope and dropped it on the floor. The one
// sanctioned seam is the pair delegation: MContext implementing itself
// by entry-checking ctx and calling M (on itself or on a wrapped
// engine) is how every *Context wrapper in this module is built, so a
// caller literally named MContext is exempt for callee M.
func checkDroppedCtx(pass *Pass, call *ast.CallExpr, callee *types.Func, callerName string) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if sigTakesCtx(sig) {
		return // the call already threads a context
	}
	ctxName := callee.Name() + "Context"
	if callerName == ctxName {
		return // the pair delegation seam
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, callee.Pkg(), ctxName)
	alt, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if altSig, ok := alt.Type().(*types.Signature); !ok || !sigTakesCtx(altSig) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops the in-scope ctx; use %s(ctx, ...)", callee.Name(), ctxName)
}

// sigTakesCtx reports whether a signature's first parameter is a
// context.Context.
func sigTakesCtx(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// typeutilCallee resolves a call expression's static callee function
// or method, or nil for calls through function values, conversions,
// and builtins.
func typeutilCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Func).
		fn, _ := pass.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
