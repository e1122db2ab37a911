// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: named analyzers run over parsed,
// type-checked packages and report position-tagged diagnostics. It
// exists because CFSF's correctness rests on invariants no compiler
// checks — bit-for-bit WAL replay, copy-on-write model publication,
// checked fsync errors — and the toolchain image carries no external
// modules, so the usual x/tools framework is rebuilt here on the
// standard library (go/ast + go/types, with export data served by
// `go list -export`).
//
// The annotation grammar the analyzers share (see README "Static
// analysis"):
//
//	//cfsf:guarded-by <mutex>   field: access only with <mutex> held
//	//cfsf:immutable            field: writes only during construction
//	//cfsf:locked <mutex>       func: caller holds <mutex>, or the value
//	//	                        is not yet published
//	//cfsf:init-only <why>      func: runs before publication; may write
//	//	                        immutable fields
//	//cfsf:ordered-ok <why>     map range: order-nondeterminism is safe
//
// Every suppression annotation requires a non-empty justification
// string; an annotation without one is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -enable/-disable.
	Name string
	// Doc is a one-paragraph description shown by the driver's -help.
	Doc string
	// Run inspects the pass's package and reports findings via
	// Pass.Reportf.
	Run func(*Pass) error
	// FactTypes lists the concrete fact types Run exports (pointers to
	// gob-serializable structs). An analyzer that exports a type not
	// listed here fails at seal time.
	FactTypes []Fact
	// Finish, when non-nil, runs once after every package pass has
	// completed, with the whole run's sealed facts in hand — the hook
	// for whole-program checks (e.g. lock-order cycles) that no single
	// package can see.
	Finish func(*Program) []Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Package  string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way the driver prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	ann   *Annotations
	store *FactStore
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.Pkg.Path(),
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotations returns the package's parsed //cfsf: annotations.
func (p *Pass) Annotations() *Annotations {
	if p.ann == nil {
		p.ann = collectAnnotations(p.Fset, p.Files)
	}
	return p.ann
}

// Annotation is one //cfsf:<key> <argument> comment.
type Annotation struct {
	Key string
	Arg string
	Pos token.Pos
}

// Annotations indexes a package's //cfsf: comments by file and line.
type Annotations struct {
	// byLine maps filename -> line -> annotations written on that line.
	byLine map[string]map[int][]Annotation
}

const annPrefix = "cfsf:"

func parseAnnotation(c *ast.Comment) (Annotation, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, annPrefix) {
		return Annotation{}, false
	}
	body := strings.TrimPrefix(text, annPrefix)
	key, arg, _ := strings.Cut(body, " ")
	// A justification ends at any embedded "//": nothing after a comment
	// marker is part of the argument.
	if i := strings.Index(arg, "//"); i >= 0 {
		arg = arg[:i]
	}
	return Annotation{Key: key, Arg: strings.TrimSpace(arg), Pos: c.Pos()}, true
}

func collectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{byLine: map[string]map[int][]Annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := parseAnnotation(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Annotation{}
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], ann)
			}
		}
	}
	return a
}

// Covering returns the annotation with the given key that covers pos: one
// written on the same line (a trailing comment) or on the line directly
// above (a leading comment). ok is false when none applies.
func (a *Annotations) Covering(fset *token.FileSet, pos token.Pos, key string) (Annotation, bool) {
	p := fset.Position(pos)
	lines := a.byLine[p.Filename]
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, ann := range lines[line] {
			if ann.Key == key {
				return ann, true
			}
		}
	}
	return Annotation{}, false
}

// FuncAnnotation returns the annotation with the given key from a
// function's doc comment, if present.
func FuncAnnotation(doc *ast.CommentGroup, key string) (Annotation, bool) {
	if doc == nil {
		return Annotation{}, false
	}
	for _, c := range doc.List {
		if ann, ok := parseAnnotation(c); ok && ann.Key == key {
			return ann, true
		}
	}
	return Annotation{}, false
}

// FieldAnnotation returns the annotation with the given key attached to a
// struct field (doc comment above it or trailing line comment).
func FieldAnnotation(field *ast.Field, key string) (Annotation, bool) {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if ann, ok := parseAnnotation(c); ok && ann.Key == key {
				return ann, true
			}
		}
	}
	return Annotation{}, false
}

// sortDiagnostics orders diagnostics by position, analyzer, message —
// the stable order every entry point reports in.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// JustificationOrReport returns true when the annotation carries a
// non-empty justification; otherwise it reports the missing-justification
// policy violation and returns false (the finding stays suppressed — the
// annotation states intent — but the empty justification is its own
// finding, so CI still fails until one is written).
func (p *Pass) JustificationOrReport(ann Annotation) bool {
	if strings.TrimSpace(ann.Arg) != "" {
		return true
	}
	p.Reportf(ann.Pos, "//cfsf:%s requires a justification string", ann.Key)
	return false
}
