// Package atomicsnapshot enforces the snapshot-serving discipline the
// QueryService established in PR 2: a struct field of a sync/atomic
// type (atomic.Pointer[T] above all) is only ever touched through its
// atomic methods — Load, Store, Swap, CompareAndSwap — never read,
// written, copied or address-taken as a raw field; and no mutex is
// held across a mining or basis-construction call. Together the two
// rules pin the architecture's serving contract: readers take
// lock-free snapshots, writers publish fully built state, and the
// expensive work (MineContext, basis Build) happens outside every
// lock so queries are never blocked on a re-mine.
//
// The mutex rule is a statement-order approximation, not a CFG
// analysis: within each block, the span between a Lock()/RLock() and
// the matching Unlock on the same receiver — or the rest of the block
// when the unlock is deferred — must not call MineContext-shaped
// functions (Mine*, and Build/Basis of the basis layer).
package atomicsnapshot

import (
	"go/ast"
	"go/types"
	"strings"

	"closedrules/internal/analysis"
)

// Analyzer is the atomicsnapshot analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicsnapshot",
	Doc:  "atomic snapshot fields are only touched via atomic methods; no mutex is held across mining",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		checkAtomicFieldAccess(pass, f)
		checkLockedMining(pass, f)
	}
	return nil, nil
}

// checkAtomicFieldAccess flags raw accesses to struct fields whose
// type is declared in sync/atomic.
func checkAtomicFieldAccess(pass *analysis.Pass, f *ast.File) {
	analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field := selectedAtomicField(pass, sel)
		if field == nil {
			return true
		}
		if len(stack) > 0 {
			if parent, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && parent.X == sel {
				// qs.st.Load(...): the selection continues into the
				// atomic type's own method set, which is the only
				// sanctioned access.
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(),
			"atomic field %s.%s accessed directly; snapshot fields must only be touched via their atomic methods (Load/Store/Swap/CompareAndSwap)",
			types.ExprString(sel.X), sel.Sel.Name)
		return true
	})
}

// selectedAtomicField resolves sel to a struct field whose type is
// declared in sync/atomic, or nil.
func selectedAtomicField(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	return obj
}

// mutexKind classifies receiver types that hold exclusion.
func mutexKind(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
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

// checkLockedMining flags mining/basis calls inside lock spans.
func checkLockedMining(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		checkBlock(pass, block)
		return true
	})
}

// checkBlock scans one statement list for Lock…Unlock spans.
func checkBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		recv, op := lockCall(pass, stmt)
		// Only unconditional Lock/RLock opens a span: a TryLock-guarded
		// region is the sanctioned single-flight idiom (refresh holds
		// its TryLock across a re-mine precisely so concurrent cycles
		// coalesce; it blocks no readers).
		if recv == "" || (op != "Lock" && op != "RLock") {
			continue
		}
		// Span: until the matching unlock in this block, or the rest
		// of the block when the unlock is deferred (or absent).
		span := block.List[i+1:]
		for j := i + 1; j < len(block.List); j++ {
			if r, o := lockCall(pass, block.List[j]); r == recv && (o == "Unlock" || o == "RUnlock") {
				span = block.List[i+1 : j]
				break
			}
		}
		for _, s := range span {
			reportMiningCalls(pass, s, recv)
		}
	}
}

// lockCall matches stmt as `recv.Op()` on a sync.Mutex/RWMutex,
// returning the receiver's expression string and the method name. A
// deferred unlock deliberately does not match: it releases at
// function exit, so the span correctly extends to the end of the
// block.
func lockCall(pass *analysis.Pass, stmt ast.Stmt) (string, string) {
	var call *ast.CallExpr
	if s, ok := stmt.(*ast.ExprStmt); ok {
		if c, ok := s.X.(*ast.CallExpr); ok {
			call = c
		}
	}
	if call == nil {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	if !mutexKind(pass.TypesInfo.Types[sel.X].Type) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

// miningCalleeNames are the unmistakably mining-shaped entry points.
var miningCalleeNames = map[string]bool{
	"MineContext":        true,
	"MineDiffsetContext": true,
	"MineClosed":         true,
	"MineFrequent":       true,
}

// reportMiningCalls flags mining/basis-construction calls under stmt.
func reportMiningCalls(pass *analysis.Pass, stmt ast.Stmt, lockRecv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure is not executed where it is written; deferred
			// or goroutine-run bodies run outside the span.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, pkgPath := calleeNameAndPkg(pass, call)
		if name == "" {
			return true
		}
		mining := miningCalleeNames[name] ||
			((name == "Build" || name == "Basis") && strings.Contains(pkgPath, "internal/basis"))
		if mining {
			pass.Reportf(call.Pos(),
				"%s called while %s is locked; mine and build bases outside the lock, then publish the finished snapshot", name, lockRecv)
		}
		return true
	})
}

// calleeNameAndPkg resolves a call's function name and package path.
func calleeNameAndPkg(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", ""
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	return fn.Name(), path
}
