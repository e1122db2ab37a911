// Package lockcheck enforces two field-level concurrency contracts
// declared by annotation:
//
//   - //cfsf:guarded-by <mutex> — the field may only be accessed while
//     <mutex> (a sync.Mutex or sync.RWMutex field of the same struct) is
//     held on the local call path: a Lock/RLock on the same receiver
//     chain earlier in the function (deferred Unlocks keep it held), a
//     //cfsf:locked <mutex> contract on the enclosing function, or the
//     value being freshly constructed in this function and therefore not
//     yet published.
//
//   - //cfsf:immutable — the field is written only while its struct is
//     under construction (assigned from a composite literal in the same
//     function) or inside a function annotated //cfsf:init-only <why>.
//     This is the copy-on-write contract of Model: a
//     published model is never mutated; every apply/retrain builds a
//     fresh value and swaps a pointer at the documented publication
//     point. An in-place write to a shared model — the GIS swap bug
//     class — is exactly what this flags.
//
// Contracts travel as facts: every annotated field's contract is
// exported under its object path, so a dependent package touching an
// imported guarded field is held to the same rule as code next to the
// declaration. Within a function the analysis is local and
// flow-approximate by design — see the shared walker in
// internal/analysis/lockstate. Helper functions called with the lock
// held declare it with //cfsf:locked <mutex>.
package lockcheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"cfsf/internal/analysis"
	"cfsf/internal/analysis/lockstate"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcheck",
	Doc:       "enforces //cfsf:guarded-by and //cfsf:immutable field contracts, across packages via facts",
	Run:       run,
	FactTypes: []analysis.Fact{(*GuardedFact)(nil)},
}

// GuardedFact is the exported form of a field contract: dependent
// packages importing the field see the same guarded-by/immutable rule
// its declaration states.
type GuardedFact struct {
	Mutex     string // guarded-by mutex field name ("" for immutable-only)
	Immutable bool
}

// AFact marks GuardedFact as a fact.
func (*GuardedFact) AFact() {}

// fieldContract describes one annotated field.
type fieldContract struct {
	mutex     string // guarded-by mutex field name ("" for immutable-only)
	immutable bool
}

func run(pass *analysis.Pass) error {
	contracts := collectContracts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, contracts)
		}
	}
	return nil
}

// collectContracts parses field annotations from every struct type
// declaration, validating that a guarded-by target names a sync.Mutex or
// sync.RWMutex field of the same struct, and exports each contract as a
// fact for dependent packages.
func collectContracts(pass *analysis.Pass) map[types.Object]fieldContract {
	contracts := map[types.Object]fieldContract{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			mutexFields := map[string]bool{}
			for _, field := range st.Fields.List {
				t := pass.Info.TypeOf(field.Type)
				if lockstate.IsMutex(t) {
					for _, name := range field.Names {
						mutexFields[name.Name] = true
					}
				}
			}
			for _, field := range st.Fields.List {
				gb, hasGB := analysis.FieldAnnotation(field, "guarded-by")
				_, hasIM := analysis.FieldAnnotation(field, "immutable")
				if !hasGB && !hasIM {
					continue
				}
				c := fieldContract{immutable: hasIM}
				if hasGB {
					mutex, _, _ := strings.Cut(gb.Arg, " ")
					if mutex == "" || !mutexFields[mutex] {
						pass.Reportf(gb.Pos, "//cfsf:guarded-by %q does not name a sync.Mutex/RWMutex field of this struct", mutex)
						continue
					}
					c.mutex = mutex
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						contracts[obj] = c
						pass.ExportObjectFact(obj, &GuardedFact{Mutex: c.mutex, Immutable: c.immutable})
					}
				}
			}
			return true
		})
	}
	return contracts
}

// checker carries the per-function lock state.
type checker struct {
	pass      *analysis.Pass
	contracts map[types.Object]fieldContract
	w         *lockstate.Walker
	fresh     map[types.Object]bool // vars assigned from composite literals here
	initOnly  bool                  // //cfsf:init-only function
	// reported dedupes per selector node: assignment targets are visited
	// by both checkWrite (chain walk) and checkExpr (read scan).
	reported map[*ast.SelectorExpr]bool
	// imported caches cross-package contract lookups by field object.
	imported map[types.Object]*fieldContract
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, contracts map[types.Object]fieldContract) {
	c := &checker{
		pass:      pass,
		contracts: contracts,
		fresh:     map[types.Object]bool{},
		reported:  map[*ast.SelectorExpr]bool{},
		imported:  map[types.Object]*fieldContract{},
	}
	c.w = &lockstate.Walker{
		Info:        pass.Info,
		OnExpr:      c.checkExpr,
		OnWrite:     c.checkWrite,
		OnAssign:    c.trackFresh,
		OnValueSpec: c.trackFreshSpec,
	}
	if a, ok := analysis.FuncAnnotation(fd.Doc, "locked"); ok {
		// The first word names the mutex; anything after it is the
		// justification (why the caller holds it / why the value is
		// unpublished).
		mutex, _, _ := strings.Cut(a.Arg, " ")
		if mutex == "" {
			pass.Reportf(a.Pos, "//cfsf:locked requires the mutex name")
		} else if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			c.w.Seed(fd.Recv.List[0].Names[0].Name + "." + mutex)
		}
	}
	if a, ok := analysis.FuncAnnotation(fd.Doc, "init-only"); ok {
		c.initOnly = pass.JustificationOrReport(a)
	}
	c.w.Walk(fd.Body)
}

// trackFresh records LHS variables assigned from composite literals
// (construction sites: the value is not yet published).
func (c *checker) trackFresh(v *ast.AssignStmt) {
	if len(v.Lhs) != len(v.Rhs) {
		return
	}
	for i, rhs := range v.Rhs {
		if !isCompositeLit(rhs) {
			continue
		}
		if id, ok := v.Lhs[i].(*ast.Ident); ok {
			if obj := c.pass.Info.Defs[id]; obj != nil {
				c.fresh[obj] = true
			} else if obj := c.pass.Info.Uses[id]; obj != nil {
				c.fresh[obj] = true
			}
		}
	}
}

func (c *checker) trackFreshSpec(vs *ast.ValueSpec) {
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

// checkExpr checks every guarded-field read reachable in e. Function
// literals are skipped: a closure runs later, possibly on another
// goroutine, so the current lock state does not apply — their bodies
// would need their own contracts (none of the annotated code accesses
// guarded fields from closures).
func (c *checker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		c.checkSelector(sel, false)
		return true
	})
}

// checkWrite checks an assignment target: immutable-field writes and
// guarded-field writes alike. The target may be nested (x.stats.Field,
// x.shards[i].Count): every selector on the chain is checked.
func (c *checker) checkWrite(lhs ast.Expr) {
	e := lhs
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			c.checkSelector(v, true)
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

// contractFor resolves the field's contract: declared in this package,
// or imported as a fact from the declaring one.
func (c *checker) contractFor(obj types.Object) (fieldContract, bool) {
	if contract, ok := c.contracts[obj]; ok {
		return contract, true
	}
	if cached, ok := c.imported[obj]; ok {
		if cached == nil {
			return fieldContract{}, false
		}
		return *cached, true
	}
	var gf GuardedFact
	if obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(obj, &gf) {
		contract := fieldContract{mutex: gf.Mutex, immutable: gf.Immutable}
		c.imported[obj] = &contract
		return contract, true
	}
	c.imported[obj] = nil
	return fieldContract{}, false
}

// checkSelector verifies one field access against its contract.
func (c *checker) checkSelector(sel *ast.SelectorExpr, write bool) {
	s, ok := c.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	contract, ok := c.contractFor(s.Obj())
	if !ok {
		return
	}
	root := analysis.RootIdent(sel.X)
	if root != nil {
		if obj := c.pass.Info.Uses[root]; obj != nil && c.fresh[obj] {
			return // construction site: not yet published
		}
	}
	if c.reported[sel] {
		return
	}
	if contract.immutable && write && !c.initOnly {
		c.reported[sel] = true
		c.pass.Reportf(sel.Pos(),
			"write to immutable field %s of a published value: copy-on-write requires building a fresh value and swapping at the publication point (or //cfsf:init-only <why> on a pre-publication helper)",
			fmt.Sprintf("%s.%s", typeName(s.Recv()), s.Obj().Name()))
	}
	if contract.mutex != "" {
		base := analysis.ExprString(sel.X)
		if base == "" || !c.w.Held(base+"."+contract.mutex) {
			c.reported[sel] = true
			c.pass.Reportf(sel.Pos(),
				"guarded field %s accessed without %s.%s held on the local path (lock it, or declare the contract with //cfsf:locked %s on the enclosing function)",
				s.Obj().Name(), baseOr(base, "receiver"), contract.mutex, contract.mutex)
		}
	}
}

func baseOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
