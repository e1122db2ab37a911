// Package walerr flags silently discarded errors on durability-critical
// calls: the internal/wal API (append, fsync, rotate, prune, replay,
// close), os.File Sync/Close on write handles, and os.Rename. A WAL
// append whose error vanishes acknowledges a rating that was never
// journaled; an fsync error that is dropped converts "durable per
// policy" into "durable if the disk felt like it"; a dropped rename
// error leaves code proceeding as if a temp file had been promoted (a
// manifest or snapshot blob) when it never was.
//
// Discarding is "silent" when the call is an expression statement or a
// defer/go statement. An explicit blank assignment (`_ = f.Close()`) is
// accepted: it is visible in review and greppable, which is the policy —
// the analyzer exists to catch errors that disappear without a trace,
// not to forbid deliberate, documented discards on error-cleanup paths.
//
// os.File.Close is only policed on write handles: files obtained from
// os.Create, os.OpenFile, or os.CreateTemp (a dropped Close error on a
// written file can hide lost data), and struct fields of type *os.File
// (long-lived handles like the WAL's active segment). Read handles from
// os.Open may close silently.
package walerr

import (
	"go/ast"
	"go/types"
	"strings"

	"cfsf/internal/analysis"
)

// Analyzer is the walerr pass.
var Analyzer = &analysis.Analyzer{
	Name:      "walerr",
	Doc:       "flags discarded errors from internal/wal calls, os.File Sync/Close on write paths, and os.Rename",
	Run:       run,
	FactTypes: []analysis.Fact{(*CriticalAPIFact)(nil)},
}

// CriticalAPIFact marks one wal function whose error return is
// durability-critical. Exported while the wal package itself is
// analyzed; dependents then police their calls by fact lookup instead
// of re-deriving what counts as a WAL call. Requires the wal package to
// be in the analyzed set (cfsf-lint runs on ./...; fixtures list it).
type CriticalAPIFact struct {
	Func string // function or Type.Method name, for diagnostics
}

// AFact marks CriticalAPIFact as a fact.
func (*CriticalAPIFact) AFact() {}

// isWALPackage matches the real module path and the analysistest fixture
// path alike.
func isWALPackage(path string) bool {
	return path == "wal" || strings.HasSuffix(path, "/wal")
}

// exportCriticalAPI marks every error-returning function and method of a
// wal package, exported and unexported alike (unexported ones matter to
// the package's own internal calls).
func exportCriticalAPI(pass *analysis.Pass) {
	if !isWALPackage(pass.Pkg.Path()) {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		switch o := scope.Lookup(name).(type) {
		case *types.Func:
			if analysis.ReturnsError(o) {
				pass.ExportObjectFact(o, &CriticalAPIFact{Func: o.Name()})
			}
		case *types.TypeName:
			named, ok := o.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if analysis.ReturnsError(m) {
					pass.ExportObjectFact(m, &CriticalAPIFact{Func: name + "." + m.Name()})
				}
			}
		}
	}
}

func run(pass *analysis.Pass) error {
	exportCriticalAPI(pass)
	writeHandles := collectWriteHandles(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = stmt.Call
			case *ast.GoStmt:
				call = stmt.Call
			default:
				return true
			}
			if call == nil {
				return true
			}
			check(pass, call, writeHandles)
			return true
		})
	}
	return nil
}

// collectWriteHandles returns every variable assigned from os.Create,
// os.OpenFile, or os.CreateTemp anywhere in the package. Tracking by
// types.Object keeps the set valid across closure boundaries.
func collectWriteHandles(pass *analysis.Pass) map[types.Object]bool {
	handles := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := analysis.Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return
		}
		switch fn.Name() {
		case "Create", "OpenFile", "CreateTemp":
		default:
			return
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				handles[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				handles[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				// Multi-value: `f, err := os.Create(...)` — the call is the
				// sole RHS; the handle is LHS[0].
				if len(st.Rhs) == 1 && len(st.Lhs) >= 1 {
					record(st.Lhs[0], st.Rhs[0])
				}
			case *ast.ValueSpec:
				if len(st.Values) == 1 && len(st.Names) >= 1 {
					record(st.Names[0], st.Values[0])
				}
			}
			return true
		})
	}
	return handles
}

func check(pass *analysis.Pass, call *ast.CallExpr, writeHandles map[types.Object]bool) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil {
		return
	}
	// Case 1: any call to a function the wal package's own analysis
	// marked durability-critical (fact lookup spans packages).
	var crit CriticalAPIFact
	if pass.ImportObjectFact(fn, &crit) {
		pass.Reportf(call.Pos(),
			"error from %s.%s is silently discarded; WAL errors must be checked and propagated (use `_ =` only for deliberate discards)",
			fn.Pkg().Name(), fn.Name())
		return
	}
	// Case 2: os.Rename — the atomic-promotion step of every temp+rename
	// publish (snapshot blob, manifest). Proceeding past
	// a failed rename means acting as if the file were published.
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "Rename" {
		pass.Reportf(call.Pos(),
			"error from os.Rename is silently discarded; a failed rename leaves the published file missing or stale")
		return
	}
	// Cases 3+4: os.File Sync anywhere, Close on write handles.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !analysis.IsNamedType(sig.Recv().Type(), "os", "File") {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch fn.Name() {
	case "Sync":
		pass.Reportf(call.Pos(),
			"error from (*os.File).Sync is silently discarded; a dropped fsync error silently voids durability")
	case "Close":
		if isWriteHandle(pass, sel.X, writeHandles) {
			pass.Reportf(call.Pos(),
				"error from (*os.File).Close on a write handle is silently discarded; a failed close can lose buffered writes")
		}
	}
}

// isWriteHandle reports whether the Close receiver is a tracked
// write-opened variable or a struct field of type *os.File.
func isWriteHandle(pass *analysis.Pass, recv ast.Expr, writeHandles map[types.Object]bool) bool {
	switch v := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[v]
		return obj != nil && writeHandles[obj]
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return true
		}
	}
	return false
}
