package analysis

// hpcclock — the lock-ordering contract. No goroutine ever holds two
// locks of the same kind at once: holding two mutexes that live in two
// instances of the *same* struct type is the symmetric deadlock shape
// (two flows taking the pair in opposite orders), wherever it appears.
//
// The analyzer checks, per function body, a single linear pass:
//
//   - a second Lock of a mutex field on the same named type while one
//     is already held (and the self-deadlock special case: re-locking
//     the very same mutex);
//   - while such a lock is held, a call to a same-package function that
//     may itself (transitively) lock a mutex of that type;
//   - helper functions that unconditionally unlock a parameter's mutex
//     (the defer-an-unlocker shape) are summarized, so the
//     unlock-via-helper idiom is tracked rather than flagged.
//
// It also enforces the sync/atomic half of the contract: a struct field
// accessed through sync/atomic functions anywhere in the package must
// never be read or written plainly — mixed access is a data race that
// the -race gates only catch when the interleaving happens to occur.
//
// The pass is deliberately unsound (one linear walk, no loop-carried
// state, no aliasing): it encodes the repo's locking idioms precisely
// enough to be zero-noise on the tree while catching the regressions
// that matter. docs/ANALYSIS.md spells out the limits.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder is the hpcclock analyzer.
var LockOrder = &Analyzer{
	Name: "hpcclock",
	Doc:  "flag double engine-lock acquisition and mixed atomic/non-atomic field access",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	sums := summarize(pass)
	for _, f := range pass.Files {
		for fn := range functionBodies(f) {
			checkLocks(pass, fn, sums)
		}
	}
	checkAtomicFields(pass)
	return nil
}

// funcSummary is what one package-level function means to its callers.
type funcSummary struct {
	// mayLock holds the named types whose mutex fields the function may
	// lock, directly or via same-package calls (computed to fixpoint).
	mayLock map[*types.TypeName]bool
	// unlocks maps parameter index → mutex field name the function
	// unconditionally unlocks on that parameter (the unlocker-helper shape).
	unlocks map[int]string
	decl    *ast.FuncDecl
}

// lockSite is one mutex expression, e.g. es.mu: the owning named type
// plus the printed receiver path that identifies the instance.
type lockSite struct {
	owner *types.TypeName
	expr  string // canonical text of the mutex expression
	field string // mutex field name
}

// mutexAt resolves X in X.Lock()/X.Unlock() to a lockSite when X is a
// sync.Mutex/RWMutex field of a named struct type.
func mutexAt(pass *Pass, x ast.Expr) (lockSite, bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return lockSite{}, false
	}
	if !isSyncMutex(pass.TypesInfo.Types[x].Type) {
		return lockSite{}, false
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return lockSite{}, false
	}
	return lockSite{owner: named.Obj(), expr: exprString(sel), field: sel.Sel.Name}, true
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// summarize computes per-function lock behavior for the package:
// unlocker-helper shapes first, then the may-lock sets to fixpoint.
func summarize(pass *Pass) map[*types.Func]*funcSummary {
	sums := make(map[*types.Func]*funcSummary)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &funcSummary{mayLock: make(map[*types.TypeName]bool), unlocks: make(map[int]string), decl: fd}
			paramObjs := make(map[types.Object]int)
			if fd.Type.Params != nil {
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if po := pass.TypesInfo.Defs[name]; po != nil {
							paramObjs[po] = i
						}
						i++
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if site, ok := mutexAt(pass, sel.X); ok {
						s.mayLock[site.owner] = true
					}
				case "Unlock", "RUnlock":
					if site, ok := mutexAt(pass, sel.X); ok {
						// Unlock of <param>.<field>: record the helper shape.
						if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
							if id, ok := ast.Unparen(inner.X).(*ast.Ident); ok {
								if idx, isParam := paramObjs[pass.TypesInfo.Uses[id]]; isParam {
									s.unlocks[idx] = site.field
								}
							}
						}
					}
				}
				return true
			})
			sums[obj] = s
		}
	}
	// Propagate may-lock through same-package calls to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			ast.Inspect(s.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := calleeOf(pass, call).(*types.Func)
				if !ok {
					return true
				}
				cs, ok := sums[callee]
				if !ok {
					return true
				}
				for tn := range cs.mayLock {
					if !s.mayLock[tn] {
						s.mayLock[tn] = true
						changed = true
					}
				}
				return true
			})
		}
	}
	return sums
}

// functionBodies yields every function body in a file: declarations and
// literals, each analyzed as its own flow (a closure runs on its own
// goroutine or schedule, so lock state does not flow into it).
func functionBodies(f *ast.File) map[*ast.BlockStmt]bool {
	out := make(map[*ast.BlockStmt]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out[n.Body] = true
			}
		case *ast.FuncLit:
			if n.Body != nil {
				out[n.Body] = true
			}
		}
		return true
	})
	return out
}

// checkLocks walks one function body in source order tracking which
// mutexes are held, ignoring nested function literals (separate flows).
func checkLocks(pass *Pass, body *ast.BlockStmt, sums map[*types.Func]*funcSummary) {
	held := make(map[string]lockSite) // expr → site
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// defer x.mu.Unlock() / defer unlockHelper(x): the lock stays
			// held for the rest of the body; nothing to track beyond
			// not treating it as an immediate unlock.
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if site, ok := mutexAt(pass, sel.X); ok {
						if prev, dup := held[site.expr]; dup {
							pass.Reportf(n.Pos(), "%s locked again while already held (self-deadlock; first lock above still in force on %s)", site.expr, prev.expr)
							return true
						}
						for _, h := range held {
							if h.owner == site.owner {
								pass.Reportf(n.Pos(), "second %s lock (%s) acquired while %s is held: the engine contract is one lock at a time — unlock before relocking", site.owner.Name(), site.expr, h.expr)
							}
						}
						held[site.expr] = site
						return true
					}
				case "Unlock", "RUnlock":
					if site, ok := mutexAt(pass, sel.X); ok {
						delete(held, site.expr)
						return true
					}
				}
			}
			// A call made while a lock is held: flag callees that may
			// take another lock of the same type. Unlocker helpers
			// release their argument's mutex instead.
			if callee, ok := calleeOf(pass, n).(*types.Func); ok {
				if s, known := sums[callee]; known {
					for idx, field := range s.unlocks {
						if idx < len(n.Args) {
							delete(held, exprString(n.Args[idx])+"."+field)
						}
					}
					for _, h := range held {
						if s.mayLock[h.owner] {
							pass.Reportf(n.Pos(), "call to %s may acquire a second %s lock while %s is held: release the engine lock before the call", callee.Name(), h.owner.Name(), h.expr)
							break
						}
					}
				}
			}
		}
		return true
	})
}

// checkAtomicFields flags struct fields that are touched both through
// sync/atomic and through plain reads/writes anywhere in the package.
func checkAtomicFields(pass *Pass) {
	atomicFields := make(map[types.Object]token.Pos) // field → first atomic site
	inAtomicCall := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(pass, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || isMethod(obj) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
					if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						field := s.Obj()
						if _, seen := atomicFields[field]; !seen {
							atomicFields[field] = call.Pos()
						}
						inAtomicCall[sel] = true
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			if _, isAtomic := atomicFields[s.Obj()]; isAtomic {
				pass.Reportf(sel.Pos(), "field %s is accessed with sync/atomic elsewhere in this package but plainly here: mixed access is a data race — use atomic, or an atomic.Int/Bool field type", s.Obj().Name())
			}
			return true
		})
	}
}

// exprString renders an expression as its canonical source text —
// the instance identity the lock tracker keys held mutexes by.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	}
	return "?"
}
