package analysis

import (
	"go/ast"
	"go/types"
)

// Lockorder machine-enforces the real-time runtime's documented lock
// hierarchy: host.mu before Router.mu, never the reverse. The comment
// in rt.go ("Lock order is host -> router") was the only thing standing
// between the sampler/churn/router triangle and a deadlock; this rule
// turns it into a build failure. Within each function body (closures
// analyzed separately, with an empty held-set — they run on other
// goroutines), acquiring a host lock while the router lock is held is
// flagged. The analysis is intra-procedural and syntactic: it tracks
// Lock/RLock/Unlock/RUnlock calls on the two ranked mutexes in source
// order, treats a deferred unlock as held-to-return, and ignores
// unranked mutexes, which nest under nothing.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the rt lock hierarchy: host.mu acquired before Router.mu, never while holding it",
	Run:  runLockorder,
}

// lockRank orders the ranked mutexes: a lock may only be acquired while
// holding locks of strictly lower rank.
var lockRanks = map[lockClass]int{
	{typeName: "host", field: "mu"}:   0,
	{typeName: "Router", field: "mu"}: 1,
}

type lockClass struct {
	typeName string
	field    string
}

func runLockorder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockBody(pass, fn.Body)
				}
				return true
			case *ast.FuncLit:
				checkLockBody(pass, fn.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// checkLockBody walks one function body in source order, tracking which
// ranked locks are held. Nested function literals are skipped here —
// the outer Inspect visits them with their own empty context.
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	held := map[lockClass]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		if def, ok := n.(*ast.DeferStmt); ok {
			// A deferred unlock keeps the lock held to the end of the
			// function; skip the call so the release is never recorded.
			if cls, op, ok := rankedLockCall(pass, def.Call); ok && (op == "Unlock" || op == "RUnlock") {
				_ = cls
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cls, op, ok := rankedLockCall(pass, call)
		if !ok {
			return true
		}
		switch op {
		case "Lock", "RLock":
			for h, cnt := range held {
				if cnt > 0 && lockRanks[h] > lockRanks[cls] {
					pass.Reportf(call.Pos(), "lock order violation: acquiring %s.%s while holding %s.%s (documented order: host before router)",
						cls.typeName, cls.field, h.typeName, h.field)
				}
			}
			held[cls]++
		case "Unlock", "RUnlock":
			if held[cls] > 0 {
				held[cls]--
			}
		}
		return true
	})
}

// rankedLockCall decodes calls of the form <expr>.<field>.<op>() where
// <expr>'s type is one of the ranked structs and op is a sync lock
// method, returning the lock's class and operation.
func rankedLockCall(pass *Pass, call *ast.CallExpr) (lockClass, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockClass{}, "", false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	base := pass.TypesInfo.TypeOf(field.X)
	if base == nil {
		return lockClass{}, "", false
	}
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok {
		return lockClass{}, "", false
	}
	cls := lockClass{typeName: named.Obj().Name(), field: field.Sel.Name}
	if _, ranked := lockRanks[cls]; !ranked {
		return lockClass{}, "", false
	}
	return cls, op, true
}
