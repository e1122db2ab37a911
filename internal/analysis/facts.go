package analysis

// Cross-package facts: the interprocedural half of the framework. While
// an analyzer runs on one package it may export facts — serializable
// summaries attached to that package's objects (functions, fields,
// types) or to the package itself — and import the facts that the same
// analyzer exported from the packages this one imports. Packages are
// analyzed in dependency order (see runner.go), so by the time a pass
// asks about a callee in another package, that package's facts are
// sealed and available.
//
// Facts are keyed by object path — a stable, position-independent name
// for a package-level object ("Train", "Model.recCache", "WAL.Append") —
// and serialized through gob when the package's analysis completes,
// mirroring how compiler export data travels beside the source (the
// `go list -export` load path in load.go). The round trip is not
// optional: every fact a pass exports is encoded and re-decoded before
// any dependent package sees it, so a fact type that cannot survive
// serialization fails loudly rather than working only in-process.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Fact is a summary exported during one package's analysis and imported
// while analyzing its dependents. Implementations must be pointers to
// gob-serializable structs and must be listed in their analyzer's
// FactTypes.
type Fact interface {
	// AFact marks the type as a fact; it has no behavior.
	AFact()
}

// ObjectPath returns the stable intra-package path of a package-level
// object: "Name" for package-scope functions, types, vars and consts;
// "Type.Method" for methods; "Type.Field" for fields of package-level
// named struct types. ok is false for objects facts cannot address
// (locals, fields of anonymous structs, objects without a package).
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return "", false
			}
			return named.Obj().Name() + "." + o.Name(), true
		}
		return o.Name(), true
	case *types.Var:
		if o.IsField() {
			if path, ok := fieldPath(o); ok {
				return path, true
			}
			return "", false
		}
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldIndexes caches, per types.Package, the map from field object to
// its "Type.Field" path. Built once by scanning the package scope's
// named struct types.
var fieldIndexes sync.Map // *types.Package -> map[types.Object]string

func fieldPath(field *types.Var) (string, bool) {
	pkg := field.Pkg()
	if pkg == nil {
		return "", false
	}
	idx, ok := fieldIndexes.Load(pkg)
	if !ok {
		m := map[types.Object]string{}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				m[st.Field(i)] = name + "." + st.Field(i).Name()
			}
		}
		idx, _ = fieldIndexes.LoadOrStore(pkg, m)
	}
	path, ok := idx.(map[types.Object]string)[field]
	return path, ok
}

// factKey addresses one fact: the exporting analyzer, the object path
// ("" for a package fact), and the concrete fact type's name.
type factKey struct {
	Analyzer string
	Object   string
	Type     string
}

// wireFact is the serialized form of one fact.
type wireFact struct {
	Key  factKey
	Fact Fact // interface value; concrete types gob-registered via FactTypes
}

// FactStore holds every package's facts for one analysis run. Open
// packages (currently being analyzed) accumulate facts in memory; when
// a package's last analyzer finishes the set is sealed — gob-encoded —
// and dependents decode it on first import.
type FactStore struct {
	mu      sync.Mutex
	open    map[string]map[factKey]Fact
	sealed  map[string][]byte
	decoded map[string]map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		open:    map[string]map[factKey]Fact{},
		sealed:  map[string][]byte{},
		decoded: map[string]map[factKey]Fact{},
	}
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// RegisterFactTypes gob-registers every fact type of the given
// analyzers, so sealed fact sets can encode them as interface values.
func RegisterFactTypes(analyzers []*Analyzer) error {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			if reflect.TypeOf(f).Kind() != reflect.Pointer {
				return fmt.Errorf("analysis: %s: fact type %T must be a pointer", a.Name, f)
			}
			gob.Register(f)
		}
	}
	return nil
}

func (s *FactStore) export(analyzer, pkgPath, objPath string, f Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.open[pkgPath]
	if set == nil {
		set = map[factKey]Fact{}
		s.open[pkgPath] = set
	}
	set[factKey{analyzer, objPath, factTypeName(f)}] = f
}

// lookup finds a fact in the open set (same package, same run) or the
// sealed set of a completed package, decoding the blob on first use.
func (s *FactStore) lookup(analyzer, pkgPath, objPath string, f Fact) (Fact, bool) {
	key := factKey{analyzer, objPath, factTypeName(f)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if set, ok := s.open[pkgPath]; ok {
		if got, ok := set[key]; ok {
			return got, true
		}
	}
	set, err := s.decodedSetLocked(pkgPath)
	if err != nil || set == nil {
		return nil, false
	}
	got, ok := set[key]
	return got, ok
}

func (s *FactStore) decodedSetLocked(pkgPath string) (map[factKey]Fact, error) {
	if set, ok := s.decoded[pkgPath]; ok {
		return set, nil
	}
	blob, ok := s.sealed[pkgPath]
	if !ok {
		return nil, nil
	}
	var wire []wireFact
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("analysis: decode facts of %s: %w", pkgPath, err)
	}
	set := make(map[factKey]Fact, len(wire))
	for _, w := range wire {
		set[w.Key] = w.Fact
	}
	s.decoded[pkgPath] = set
	return set, nil
}

// Seal serializes a completed package's facts. After Seal, dependents
// import through the gob round trip; exporting to the package again is
// a bug in the scheduler.
func (s *FactStore) Seal(pkgPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.open[pkgPath]
	delete(s.open, pkgPath)
	if len(set) == 0 {
		return nil
	}
	wire := make([]wireFact, 0, len(set))
	for k, f := range set {
		wire = append(wire, wireFact{Key: k, Fact: f})
	}
	sort.Slice(wire, func(i, j int) bool {
		a, b := wire[i].Key, wire[j].Key
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("analysis: encode facts of %s: %w", pkgPath, err)
	}
	s.sealed[pkgPath] = buf.Bytes()
	return nil
}

// packageFacts returns every sealed fact of one analyzer across all
// packages, as (package path, object path, fact) tuples in
// deterministic order. Used by Finish hooks for whole-program checks.
func (s *FactStore) packageFacts(analyzer string) ([]ProgramFact, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths := make([]string, 0, len(s.sealed))
	for p := range s.sealed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []ProgramFact
	for _, p := range paths {
		set, err := s.decodedSetLocked(p)
		if err != nil {
			return nil, err
		}
		keys := make([]factKey, 0, len(set))
		for k := range set {
			if k.Analyzer == analyzer {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Object != keys[j].Object {
				return keys[i].Object < keys[j].Object
			}
			return keys[i].Type < keys[j].Type
		})
		for _, k := range keys {
			out = append(out, ProgramFact{Package: p, Object: k.Object, Fact: set[k]})
		}
	}
	return out, nil
}

// ProgramFact is one sealed fact seen from a Finish hook.
type ProgramFact struct {
	Package string // exporting package path
	Object  string // object path within it ("" for a package fact)
	Fact    Fact
}

// copyFact assigns src's contents into the pointer dst (both must be
// pointers to the same struct type).
func copyFact(dst, src Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// ExportObjectFact exports a fact about obj, which must belong to the
// package under analysis. Facts about objects the path scheme cannot
// address are dropped silently (locals never matter to dependents).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		return
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return
	}
	p.store.export(p.Analyzer.Name, p.Pkg.Path(), path, f)
}

// ImportObjectFact copies the fact of the given concrete type about obj
// into f and reports whether one was found. obj may belong to the
// current package (facts exported earlier in this pass) or to any
// package analyzed before it.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	got, ok := p.store.lookup(p.Analyzer.Name, obj.Pkg().Path(), path, f)
	if !ok {
		return false
	}
	copyFact(f, got)
	return true
}

// ExportPackageFact exports a fact about the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.store.export(p.Analyzer.Name, p.Pkg.Path(), "", f)
}

// ImportPackageFact copies the package fact of f's concrete type
// exported by pkgPath into f and reports whether one was found.
func (p *Pass) ImportPackageFact(pkgPath string, f Fact) bool {
	got, ok := p.store.lookup(p.Analyzer.Name, pkgPath, "", f)
	if !ok {
		return false
	}
	copyFact(f, got)
	return true
}
