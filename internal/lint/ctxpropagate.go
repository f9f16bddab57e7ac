package lint

import (
	"go/ast"
	"go/types"
)

// CtxPropagate enforces the context-threading contract from the supervised
// runtime work: long-running library APIs take a context.Context and pass
// it down, so cancellation, deadlines, and SIGTERM drains reach every
// layer. Minting a fresh context.Background()/context.TODO() severs that
// chain. Two shapes are flagged:
//
//   - any function that already receives a context.Context but calls
//     context.Background()/TODO() inside (the strongest violation: a ctx
//     was available and was discarded), and
//   - any other use in a non-main package (library code must accept the
//     context from its caller; only binaries mint the root context).
//
// Library APIs have no no-ctx convenience wrappers: callers mint the root
// context in main or in a test. A call that must still mint one (guard's
// stage runner, once its parent context has fired) carries a
// //lint:ignore ctxpropagate suppression with the rationale.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "functions receiving a ctx must not mint context.Background/TODO; library code threads the caller's context",
	Run:  runCtxPropagate,
}

func runCtxPropagate(pass *Pass) {
	for _, f := range pass.Files {
		// stack tracks every node on the path from the file root so the
		// nil (post-order) callback can pop; hasCtx mirrors the enclosing
		// functions with "does any of them take a context.Context".
		var stack []ast.Node
		var hasCtx []bool
		isFunc := func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				return true
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if isFunc(top) {
					hasCtx = hasCtx[:len(hasCtx)-1]
				}
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				hasCtx = append(hasCtx, tailOr(hasCtx) || fieldListTakesCtx(pass, n.Type.Params))
			case *ast.FuncLit:
				hasCtx = append(hasCtx, tailOr(hasCtx) || fieldListTakesCtx(pass, n.Type.Params))
			case *ast.CallExpr:
				if !isPkgFunc(pass, n, "context", "Background", "TODO") {
					return true
				}
				switch {
				case tailOr(hasCtx):
					pass.Reportf(n.Pos(),
						"function already receives a context.Context; thread it instead of minting a fresh context")
				case pass.Pkg.Name() != "main":
					pass.Reportf(n.Pos(),
						"library code must accept a context from the caller; only package main mints the root context")
				}
			}
			return true
		})
	}
}

func tailOr(stack []bool) bool {
	return len(stack) > 0 && stack[len(stack)-1]
}

func fieldListTakesCtx(pass *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, p := range params.List {
		if isContextType(pass.TypeOf(p.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
