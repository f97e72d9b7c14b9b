package analysis

// hpccwire — hygiene at the wire boundary. The remote-execution layer
// (internal/harness wire.go/remote.go/remoteworker.go/pipe.go, the
// serve and worker commands in internal/cli) is where errors stop being
// local: a bare os/net error that crosses a frame tells the far side
// "broken pipe" with no hint of which shard, which frame, which phase.
// The repo convention is that every error returned from a wire-boundary
// function is wrapped with fmt.Errorf("...: %w", err) at the point it
// enters the boundary. Likewise, goroutines launched inside the
// boundary must see the ambient context: a goroutine spawned from a
// ctx-bearing function that captures no ctx outlives cancellation and
// leaks across runs.
//
// Scope: the wire-boundary files of repro/internal/harness and
// repro/internal/cli (by basename, listed below), plus any package that
// opts in with a //hpcc:wire marker comment (the analysistest fixtures
// do). Two checks per in-scope file:
//
//   - a `return err` whose binding assignment was a call into a package
//     outside this module, returned with no wrapping in between;
//   - a `go` statement inside a function that receives a
//     context.Context, where the spawned function neither takes nor
//     references any context value.

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// WireHygiene is the hpccwire analyzer.
var WireHygiene = &Analyzer{
	Name: "hpccwire",
	Doc:  "wrap errors crossing the wire boundary; launch goroutines with the ambient ctx",
	Run:  runWireHygiene,
}

// wireBoundaryFiles are the basenames that form the wire boundary in the
// two packages the check binds by default.
var wireBoundaryFiles = map[string]bool{
	"wire.go":         true,
	"remote.go":       true,
	"remoteworker.go": true,
	"pipe.go":         true,
	"chaos.go":        true,
	"worker.go":       true,
	"serve.go":        true,
}

var wireBoundaryPkgs = map[string]bool{
	"repro/internal/harness": true,
	"repro/internal/cli":     true,
}

func runWireHygiene(pass *Pass) error {
	marked := hasMarker(pass.Files, "wire")
	boundary := wireBoundaryPkgs[pass.Pkg.Path()]
	if !marked && !boundary {
		return nil
	}
	for _, f := range pass.Files {
		if !marked {
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if !wireBoundaryFiles[name] {
				continue
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkWireFunc(pass, n.Type, n.Body)
				}
				return true
			case *ast.FuncLit:
				checkWireFunc(pass, n.Type, n.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// checkWireFunc runs both wire checks over one function body. Nested
// function literals are skipped here — the outer Inspect visits them as
// their own flows, with their own taint state.
func checkWireFunc(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	hasCtx := funcTakesContext(pass, ft)
	// tainted marks error objects whose most recent binding was a call
	// into a foreign package, not yet re-wrapped.
	tainted := make(map[types.Object]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			updateTaint(pass, n, tainted)
		case *ast.GoStmt:
			if hasCtx && !spawnSeesContext(pass, n.Call) {
				pass.Reportf(n.Pos(), "goroutine launched without the ambient ctx: this function receives a context.Context, but the spawned func never references one — it will outlive cancellation")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				id, ok := ast.Unparen(res).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Uses[id]
				if obj != nil && tainted[obj] {
					pass.Reportf(res.Pos(), "error from outside the module returned bare across the wire boundary: wrap it (fmt.Errorf(\"<op>: %%w\", %s)) so the far side learns which frame failed", id.Name)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// updateTaint processes one assignment: an error-typed LHS bound to a
// call into a foreign package becomes tainted; any other binding —
// fmt.Errorf wrapping, a same-module call, a composite — clears it.
func updateTaint(pass *Pass, as *ast.AssignStmt, tainted map[types.Object]bool) {
	foreign := false
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			foreign = isForeignCall(pass, call)
		}
	}
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil || !isErrorType(obj.Type()) {
			continue
		}
		if foreign {
			tainted[obj] = true
		} else {
			delete(tainted, obj)
		}
	}
}

// isForeignCall reports whether the call resolves to a function outside
// this module, excluding the error-wrapping constructors: an error built
// by fmt.Errorf or errors.New/Join already carries local context.
func isForeignCall(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeOf(pass, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return false
	}
	switch {
	case path == "fmt" && obj.Name() == "Errorf",
		path == "errors" && (obj.Name() == "New" || obj.Name() == "Join"):
		return false
	case path == "context":
		// ctx.Err() returns the Canceled/DeadlineExceeded sentinels;
		// callers match them with errors.Is, and returning them bare is
		// the idiom.
		return false
	}
	return true
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// funcTakesContext reports whether the function signature includes a
// context.Context parameter.
func funcTakesContext(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(pass.TypesInfo.Types[field.Type].Type) {
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

// spawnSeesContext reports whether the spawned call references any
// context value: a ctx-typed argument, a ctx-typed callee parameter, or
// — for a func literal — any use of a ctx-typed identifier inside it.
func spawnSeesContext(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isContextType(tv.Type) {
			return true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		seen := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if seen {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && isContextType(obj.Type()) {
					seen = true
				}
			}
			return true
		})
		return seen
	}
	// A named callee that itself takes a ctx parameter would have shown
	// up as a ctx-typed argument above; anything else is ctx-blind.
	return false
}
