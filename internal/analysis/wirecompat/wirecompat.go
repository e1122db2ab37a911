// Package wirecompat pins the shape of serialized types to a reviewed
// golden, so wire-format changes cannot ship silently. A type opted in
// with
//
//	//cfsf:wire <versionConst>
//
// on its declaration is fingerprinted — a canonical rendering of its
// exported fields, struct tags included, recursively expanding named
// struct types from the same module (their fields are part of the wire
// format too; stdlib and third-party types stay opaque so toolchain
// drift cannot move the fingerprint). The fingerprint and the named
// version constant's value are compared against wire_golden.json in the
// package directory:
//
//   - shape changed, version unchanged: the bug this analyzer exists
//     for — reported at the version constant, which is where the fix
//     goes;
//   - shape changed, version bumped: legitimate evolution, but the
//     golden no longer documents the current wire format — refresh it
//     with `cfsf-lint -update-wire-golden`;
//   - shape unchanged, version changed: a bump (or revert) without a
//     shape change — reported at the constant;
//   - no golden entry: new wire type — record it with
//     `cfsf-lint -update-wire-golden`;
//   - a golden entry with no wire type: the type was deleted, so nothing
//     decodes that format any more — drop the entry with
//     `cfsf-lint -update-wire-golden`. Reported at the package clause,
//     in packages with no wire type left too.
//
// With Update set (the driver's -update-wire-golden), each package's
// golden is rewritten from the current source instead of reported
// against, and deleted when the package has no wire type; review the diff
// like any other contract change.
package wirecompat

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cfsf/internal/analysis"
)

// Analyzer is the wirecompat pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirecompat",
	Doc:  "pins //cfsf:wire type shapes and version constants to a reviewed per-package golden",
	Run:  run,
}

// Update switches the pass from checking goldens to rewriting them.
// The driver sets it once before RunAnalyzers; passes only read it.
var Update bool

// GoldenFile is the per-package golden's filename.
const GoldenFile = "wire_golden.json"

type goldenEntry struct {
	Version int64  `json:"version"`
	Fields  string `json:"fields"`
}

type wireType struct {
	name     string
	typePos  ast.Node // the TypeSpec, for shape findings
	constObj types.Object
	version  int64
	fields   string
}

func run(pass *analysis.Pass) error {
	var wires []wireType
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				ann, ok := typeAnnotation(gd, ts)
				if !ok {
					continue
				}
				if w, ok := resolve(pass, ts, ann); ok {
					wires = append(wires, w)
				}
			}
		}
	}
	if len(pass.Files) == 0 {
		return nil
	}
	pkgPos := pass.Files[0].Name.Pos()
	path := filepath.Join(filepath.Dir(pass.Fset.Position(pkgPos).Filename), GoldenFile)
	if Update {
		return writeGolden(path, wires)
	}
	golden, err := readGolden(path)
	if err != nil {
		pass.Reportf(pkgPos, "wirecompat: reading %s: %v", GoldenFile, err)
		return nil
	}
	declared := map[string]bool{}
	for _, w := range wires {
		declared[w.name] = true
		check(pass, w, golden)
	}
	var gone []string
	for name := range golden {
		if !declared[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		pass.Reportf(pkgPos,
			"%s records wire type %s, which no //cfsf:wire type in this package declares: nothing decodes that format any more, drop the entry with `cfsf-lint -update-wire-golden`",
			GoldenFile, name)
	}
	return nil
}

// typeAnnotation finds //cfsf:wire on the type's declaration: the
// GenDecl doc (the usual spot), the TypeSpec doc, or its line comment.
func typeAnnotation(gd *ast.GenDecl, ts *ast.TypeSpec) (analysis.Annotation, bool) {
	for _, doc := range []*ast.CommentGroup{ts.Doc, ts.Comment, gd.Doc} {
		if ann, ok := analysis.FuncAnnotation(doc, "wire"); ok {
			return ann, true
		}
	}
	return analysis.Annotation{}, false
}

// resolve turns one annotated TypeSpec into a wireType, reporting
// malformed annotations as findings.
func resolve(pass *analysis.Pass, ts *ast.TypeSpec, ann analysis.Annotation) (wireType, bool) {
	constName, _, _ := strings.Cut(ann.Arg, " ")
	if constName == "" {
		pass.Reportf(ann.Pos, "//cfsf:wire requires the version constant's name")
		return wireType{}, false
	}
	obj := pass.Pkg.Scope().Lookup(constName)
	cst, ok := obj.(*types.Const)
	if !ok {
		pass.Reportf(ann.Pos, "//cfsf:wire %s: no such constant in package %s", constName, pass.Pkg.Path())
		return wireType{}, false
	}
	version, ok := constant.Int64Val(cst.Val())
	if !ok {
		pass.Reportf(ann.Pos, "//cfsf:wire %s: not an integer constant", constName)
		return wireType{}, false
	}
	tobj := pass.Info.Defs[ts.Name]
	if tobj == nil {
		return wireType{}, false
	}
	st, ok := tobj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ann.Pos, "//cfsf:wire only applies to struct types")
		return wireType{}, false
	}
	home := firstSegment(pass.Pkg.Path())
	return wireType{
		name:     ts.Name.Name,
		typePos:  ts,
		constObj: cst,
		version:  version,
		fields:   fingerprintStruct(st, home, map[string]bool{}),
	}, true
}

func check(pass *analysis.Pass, w wireType, golden map[string]goldenEntry) {
	g, ok := golden[w.name]
	if !ok {
		pass.Reportf(w.typePos.Pos(),
			"wire type %s has no entry in %s: record the reviewed shape with `cfsf-lint -update-wire-golden`",
			w.name, GoldenFile)
		return
	}
	switch {
	case w.fields == g.Fields && w.version == g.Version:
		// In sync.
	case w.fields != g.Fields && w.version == g.Version:
		pass.Reportf(w.constObj.Pos(),
			"wire type %s changed shape without bumping %s (reviewed: %s, now: %s): old snapshots would decode wrong, bump the version and refresh the golden",
			w.name, w.constObj.Name(), g.Fields, w.fields)
	case w.fields != g.Fields:
		pass.Reportf(w.typePos.Pos(),
			"golden entry for wire type %s is stale (version bumped to %d): refresh it with `cfsf-lint -update-wire-golden`",
			w.name, w.version)
	default: // fields match, version differs
		pass.Reportf(w.constObj.Pos(),
			"%s is %d but the reviewed golden records version %d for this exact shape: bump only together with a shape change, then refresh the golden",
			w.constObj.Name(), w.version, g.Version)
	}
}

func readGolden(path string) (map[string]goldenEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]goldenEntry{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// writeGolden records wires in the golden at path, or deletes it when
// there are none.
func writeGolden(path string, wires []wireType) error {
	if len(wires) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	out := make(map[string]goldenEntry, len(wires))
	for _, w := range wires {
		out[w.name] = goldenEntry{Version: w.version, Fields: w.fields}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// customEncoder reports the method a named type serializes itself
// with, or "" when encoders see its plain fields.
func customEncoder(t types.Type) string {
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, name := range [...]string{"GobEncode", "MarshalBinary", "MarshalJSON"} {
		if sel := ms.Lookup(nil, name); sel != nil {
			if _, ok := sel.Obj().(*types.Func); ok {
				return name
			}
		}
	}
	return ""
}

// firstSegment returns the import path's leading element — the module
// boundary for expansion purposes.
func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

var qualifier = func(p *types.Package) string { return p.Path() }

// fingerprintType renders one type canonically. Named struct types
// whose package shares the module's first path segment are expanded —
// their exported fields are part of the wire format — with a seen set
// breaking cycles; everything else renders as its qualified name, kept
// opaque so stdlib internals never leak into the fingerprint.
func fingerprintType(t types.Type, home string, seen map[string]bool) string {
	switch v := t.(type) {
	case *types.Named:
		obj := v.Obj()
		full := obj.Name()
		if obj.Pkg() != nil {
			full = obj.Pkg().Path() + "." + obj.Name()
		}
		if m := customEncoder(v); m != "" {
			// The type owns its wire format (and versioning) through a
			// custom encoder; expanding its fields would pin the wrong
			// thing. Annotate the encoder's own wire type instead.
			return full + "(" + m + ")"
		}
		st, isStruct := v.Underlying().(*types.Struct)
		if isStruct && obj.Pkg() != nil && firstSegment(obj.Pkg().Path()) == home && !seen[full] {
			// seen guards the current expansion path only, so sibling
			// fields of one type render identically wherever they sit.
			seen[full] = true
			s := full + fingerprintStruct(st, home, seen)
			delete(seen, full)
			return s
		}
		return types.TypeString(t, qualifier)
	case *types.Pointer:
		return "*" + fingerprintType(v.Elem(), home, seen)
	case *types.Slice:
		return "[]" + fingerprintType(v.Elem(), home, seen)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", v.Len(), fingerprintType(v.Elem(), home, seen))
	case *types.Map:
		return "map[" + fingerprintType(v.Key(), home, seen) + "]" + fingerprintType(v.Elem(), home, seen)
	case *types.Struct:
		return fingerprintStruct(v, home, seen)
	default:
		return types.TypeString(t, qualifier)
	}
}

// fingerprintStruct renders the exported fields (the ones encoders
// see), tags included.
func fingerprintStruct(st *types.Struct, home string, seen map[string]bool) string {
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		s := f.Name() + " " + fingerprintType(f.Type(), home, seen)
		if tag := st.Tag(i); tag != "" {
			s += " `" + tag + "`"
		}
		fields = append(fields, s)
	}
	sort.Strings(fields)
	return "{" + strings.Join(fields, "; ") + "}"
}
