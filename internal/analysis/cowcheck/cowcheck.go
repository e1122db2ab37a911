// Package cowcheck enforces the //cfsf:cow contract on copy-on-write
// fields (Model.neighborCache, Model.recCache, recEntry.ranked):
// the field may be written only before its owner is published —
// published meaning stored through a sync/atomic typed Store/Swap or
// assigned into a longer-lived structure (the under-lock swap). After
// that point the value is shared with concurrent readers that rely on
// it never changing; the fix for "I need to change it" is always to
// build a fresh value and swap at the publication point.
//
// Compared to lockcheck's //cfsf:immutable this check:
//
//   - descends into function literals, inheriting the enclosing
//     context — the repo's builders write mirrors inside parallel.For
//     closures, which //cfsf:immutable cannot see;
//   - tracks the publication point inside a function: even an
//     //cfsf:init-only builder may not touch a cow field of a value it
//     has already Stored;
//   - follows writes across calls: a function that writes cow fields
//     of its receiver or parameters exports CowWriterFact, and calling
//     it with a possibly-published argument is flagged at the call
//     site, in any package.
//
// A write is legal when the root value is fresh (built from a
// composite literal in this function and not yet published) or the
// function is annotated //cfsf:init-only <why> (it runs before
// publication by contract). Escape: //cfsf:cow-ok <why> on the line.
package cowcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"cfsf/internal/analysis"
)

// Analyzer is the cowcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "cowcheck",
	Doc:       "forbids writes to //cfsf:cow fields after the owning value's publication point",
	Run:       run,
	FactTypes: []analysis.Fact{(*CowFieldFact)(nil), (*CowWriterFact)(nil)},
}

// CowFieldFact marks one field as copy-on-write.
type CowFieldFact struct {
	Name string
}

// AFact marks CowFieldFact as a fact.
func (*CowFieldFact) AFact() {}

// CowWriterFact: the function writes cow fields reachable from the
// listed parameters (flattened index: receiver first). Callers must
// pass fresh or pre-publication values.
type CowWriterFact struct {
	Params []int
	Fields []string // written field names, for diagnostics
}

// AFact marks CowWriterFact as a fact.
func (*CowWriterFact) AFact() {}

func run(pass *analysis.Pass) error {
	cow := collectCow(pass)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Phase A: export CowWriterFact summaries to a fixpoint so calls to
	// writers declared later in the package resolve.
	for round := 0; ; round++ {
		changed := false
		for _, fd := range decls {
			if newFnChecker(pass, cow, fd, false).walk() {
				changed = true
			}
		}
		if !changed || round >= 4 {
			break
		}
	}
	// Phase B: report.
	for _, fd := range decls {
		newFnChecker(pass, cow, fd, true).walk()
	}
	return nil
}

// collectCow indexes //cfsf:cow annotated fields and exports each as a
// fact for dependent packages.
func collectCow(pass *analysis.Pass) map[types.Object]bool {
	cow := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if _, ok := analysis.FieldAnnotation(field, "cow"); !ok {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						cow[obj] = true
						pass.ExportObjectFact(obj, &CowFieldFact{Name: name.Name})
					}
				}
			}
			return true
		})
	}
	return cow
}

type fnChecker struct {
	pass   *analysis.Pass
	cow    map[types.Object]bool
	fd     *ast.FuncDecl
	fn     *types.Func
	report bool

	initOnly  bool
	fresh     map[types.Object]bool // composite-literal locals
	published map[types.Object]bool // stored atomically or into a structure
	paramIdx  map[types.Object]int  // flattened parameter index

	writes   map[int]map[string]bool // param index -> cow fields written
	imported map[types.Object]bool   // cross-package cow-field cache
	reported map[token.Pos]bool
	exported bool
}

func newFnChecker(pass *analysis.Pass, cow map[types.Object]bool, fd *ast.FuncDecl, report bool) *fnChecker {
	c := &fnChecker{
		pass:      pass,
		cow:       cow,
		fd:        fd,
		report:    report,
		fresh:     map[types.Object]bool{},
		published: map[types.Object]bool{},
		paramIdx:  map[types.Object]int{},
		writes:    map[int]map[string]bool{},
		imported:  map[types.Object]bool{},
		reported:  map[token.Pos]bool{},
	}
	c.fn, _ = pass.Info.Defs[fd.Name].(*types.Func)
	if _, ok := analysis.FuncAnnotation(fd.Doc, "init-only"); ok {
		c.initOnly = true // the justification string is enforced by lockcheck
	}
	idx := 0
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					c.paramIdx[obj] = idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	return c
}

func (c *fnChecker) walk() bool {
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			c.trackFresh(v)
			for _, lhs := range v.Lhs {
				c.checkWrite(lhs)
			}
			for _, rhs := range v.Rhs {
				c.trackPublishAssign(v.Lhs, rhs)
			}
		case *ast.ValueSpec:
			c.trackFreshSpec(v)
		case *ast.IncDecStmt:
			c.checkWrite(v.X)
		case *ast.CallExpr:
			c.checkCall(v)
		}
		return true
	})
	if c.fn != nil && !c.report && len(c.writes) > 0 {
		params := make([]int, 0, len(c.writes))
		fieldSet := map[string]bool{}
		for p, fields := range c.writes {
			params = append(params, p)
			for f := range fields {
				fieldSet[f] = true
			}
		}
		sort.Ints(params)
		fields := make([]string, 0, len(fieldSet))
		for f := range fieldSet {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		var have CowWriterFact
		if !(c.pass.ImportObjectFact(c.fn, &have) && len(have.Params) == len(params) && len(have.Fields) == len(fields)) {
			c.pass.ExportObjectFact(c.fn, &CowWriterFact{Params: params, Fields: fields})
			c.exported = true
		}
	}
	return c.exported
}

func (c *fnChecker) trackFresh(v *ast.AssignStmt) {
	if len(v.Lhs) != len(v.Rhs) {
		return
	}
	for i, rhs := range v.Rhs {
		id, ok := v.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch {
		case isCompositeLit(rhs):
			c.fresh[obj] = true
		case c.atomicLoaded(rhs):
			// m := ptr.Load(): m aliases the live published value.
			c.published[obj] = true
		}
	}
}

func (c *fnChecker) trackFreshSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, val := range vs.Values {
		if !isCompositeLit(val) {
			continue
		}
		if obj := c.pass.Info.Defs[vs.Names[i]]; obj != nil {
			c.fresh[obj] = true
		}
	}
}

func isCompositeLit(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := v.X.(*ast.CompositeLit)
		return ok
	}
	return false
}

// trackPublishAssign marks a fresh value published when it is assigned
// into something that outlives the function: a field of a non-fresh
// value, or a package-level variable (the under-lock swap idiom).
func (c *fnChecker) trackPublishAssign(lhs []ast.Expr, rhs ast.Expr) {
	obj := c.rootObj(rhs)
	if obj == nil || !(c.fresh[obj] || c.isParam(obj)) {
		return
	}
	for _, l := range lhs {
		switch v := ast.Unparen(l).(type) {
		case *ast.SelectorExpr:
			if root := c.rootObj(v.X); root == nil || !c.fresh[root] {
				c.published[obj] = true
			}
		case *ast.Ident:
			if o := c.objOf(v); o != nil {
				if vr, ok := o.(*types.Var); ok && vr.Parent() == c.pass.Pkg.Scope() {
					c.published[obj] = true
				}
			}
		case *ast.IndexExpr:
			if root := c.rootObj(v.X); root == nil || !c.fresh[root] {
				c.published[obj] = true
			}
		}
	}
}

func (c *fnChecker) isParam(obj types.Object) bool {
	_, ok := c.paramIdx[obj]
	return ok
}

func (c *fnChecker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.Info.Defs[id]
}

func (c *fnChecker) rootObj(e ast.Expr) types.Object {
	if root := analysis.RootIdent(e); root != nil {
		return c.objOf(root)
	}
	return nil
}

// isCowField resolves whether a selected field carries the cow
// contract, locally or via imported fact.
func (c *fnChecker) isCowField(obj types.Object) bool {
	if c.cow[obj] {
		return true
	}
	if known, ok := c.imported[obj]; ok {
		return known
	}
	var f CowFieldFact
	known := obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(obj, &f)
	c.imported[obj] = known
	return known
}

// checkWrite walks an assignment target's selector chain looking for
// cow fields.
func (c *fnChecker) checkWrite(lhs ast.Expr) {
	e := lhs
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			c.checkSelectorWrite(v)
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return
		}
	}
}

func (c *fnChecker) checkSelectorWrite(sel *ast.SelectorExpr) {
	s, ok := c.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || !c.isCowField(s.Obj()) {
		return
	}
	root := c.rootObj(sel.X)
	if root == nil {
		// Call-rooted chain, e.g. ptr.Load().f = x.
		if c.atomicLoaded(baseExpr(sel.X)) {
			c.reportPublished(sel.Pos(), s.Obj().Name())
		}
		return
	}
	if c.published[root] {
		c.reportPublished(sel.Pos(), s.Obj().Name())
		return
	}
	if c.fresh[root] {
		return
	}
	// Writes to a parameter's cow field become a summary: each call
	// site decides legality. This holds for init-only builders too, so
	// the obligation propagates to their callers.
	if idx, ok := c.paramIdx[root]; ok {
		c.recordWrite(idx, s.Obj().Name())
		return
	}
	if c.initOnly {
		return
	}
	if isPackageLevelVar(root) {
		c.violation(sel.Pos(),
			"write to copy-on-write field %s of package-level %s: cow fields may only be written on a fresh value or in an //cfsf:init-only builder",
			s.Obj().Name(), root.Name())
	}
	// Other locals are presumed unpublished: whoever produced them is
	// checked at its own publication sites.
}

func (c *fnChecker) recordWrite(idx int, field string) {
	set := c.writes[idx]
	if set == nil {
		set = map[string]bool{}
		c.writes[idx] = set
	}
	set[field] = true
}

func (c *fnChecker) reportPublished(pos token.Pos, field string) {
	c.violation(pos,
		"write to copy-on-write field %s after its value was published: readers already share it (build a fresh value and swap at the publication point)",
		field)
}

// checkCall handles the two call-site rules: atomic Store/Swap marks
// its argument published, and calling a CowWriterFact function with a
// possibly-published argument is a violation.
func (c *fnChecker) checkCall(call *ast.CallExpr) {
	fn := analysis.Callee(c.pass.Info, call)
	if fn == nil {
		return
	}
	if isAtomicStore(fn) {
		for _, arg := range call.Args {
			if obj := c.rootObj(arg); obj != nil {
				c.published[obj] = true
			}
		}
		return
	}
	var w CowWriterFact
	if !c.pass.ImportObjectFact(fn, &w) {
		return
	}
	flat := c.flatArgs(call, fn)
	for _, i := range w.Params {
		if i >= len(flat) {
			continue
		}
		obj := c.rootObj(flat[i])
		if obj == nil {
			if c.atomicLoaded(baseExpr(flat[i])) {
				c.violation(flat[i].Pos(),
					"%s writes copy-on-write fields (%v) of this argument, which was loaded from the live published pointer", fn.Name(), w.Fields)
			}
			continue
		}
		if c.published[obj] {
			c.violation(flat[i].Pos(),
				"%s writes copy-on-write fields (%v) of this argument, which was already published", fn.Name(), w.Fields)
			continue
		}
		if c.fresh[obj] || c.initOnly {
			continue
		}
		if idx, ok := c.paramIdx[obj]; ok {
			// Propagate the obligation to our own callers.
			for _, f := range w.Fields {
				c.recordWrite(idx, f)
			}
			continue
		}
		if isPackageLevelVar(obj) {
			c.violation(flat[i].Pos(),
				"%s writes copy-on-write fields (%v) of package-level %s, which is shared by definition (build a fresh value and swap it in)",
				fn.Name(), w.Fields, obj.Name())
		}
	}
}

// baseExpr strips the selector/index/star chain down to its base
// expression (the one RootIdent gave up on).
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return v
		}
	}
}

// atomicLoaded reports whether e is a direct call of an atomic typed
// Load method — its result is the live published value by definition.
func (c *fnChecker) atomicLoaded(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.Callee(c.pass.Info, call)
	return fn != nil && fn.Name() == "Load" && isAtomicMethod(fn)
}

func isPackageLevelVar(obj types.Object) bool {
	vr, ok := obj.(*types.Var)
	return ok && !vr.IsField() && vr.Parent() != nil && vr.Parent().Parent() == types.Universe
}

func (c *fnChecker) flatArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := c.pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				return append([]ast.Expr{sel.X}, call.Args...)
			}
		}
	}
	return call.Args
}

// isAtomicStore matches Store/Swap methods of sync/atomic typed
// wrappers — the publication point.
func isAtomicStore(fn *types.Func) bool {
	switch fn.Name() {
	case "Store", "Swap", "CompareAndSwap":
		return isAtomicMethod(fn)
	}
	return false
}

// isAtomicMethod reports whether fn is a method of a sync/atomic typed
// wrapper (atomic.Pointer[T], atomic.Uint64, ...).
func isAtomicMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

func (c *fnChecker) violation(pos token.Pos, format string, args ...any) {
	if !c.report || c.reported[pos] {
		return
	}
	c.reported[pos] = true
	if a, ok := c.pass.Annotations().Covering(c.pass.Fset, pos, "cow-ok"); ok {
		c.pass.JustificationOrReport(a)
		return
	}
	c.pass.Reportf(pos, format, args...)
}
