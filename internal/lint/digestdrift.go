package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// digestDrift enforces the cache-key contract: every field of the
// scenario struct (Config.ScenarioType) must either be referenced by
// its Digest method — i.e. folded into the content address — or appear
// on the explicit exclusion list of execution-strategy fields that are
// proven result-neutral. A scenario axis added without touching
// Digest() would silently serve stale cached results for new
// semantics; this analyzer makes that a compile-time error.
//
// The reverse directions are checked too: an excluded field that
// Digest does reference, and an exclusion-list entry naming no field,
// are both findings — the list must stay exact.
type digestDrift struct {
	cfg Config
}

func newDigestDrift(cfg Config) *digestDrift { return &digestDrift{cfg: cfg} }

func (d *digestDrift) Name() string { return "digest-drift" }
func (d *digestDrift) Doc() string {
	return "every Scenario field must be encoded by Digest() or on the explicit exclusion list"
}
func (d *digestDrift) Package(pkg *Package) []Diagnostic {
	obj, ok := pkg.Types.Scope().Lookup(d.cfg.ScenarioType).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	digest := methodDecl(pkg, named, d.cfg.DigestMethod)
	if digest == nil {
		return nil // a Scenario without a digest is not a cache key
	}

	// Fields the digest method reads, via go/types selections: any
	// s.<Field> on a receiver-typed value counts as encoded.
	referenced := make(map[string]bool)
	ast.Inspect(digest.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pkg.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if n, ok := recv.(*types.Named); ok && n.Obj() == named.Obj() {
			referenced[s.Obj().Name()] = true
		}
		return true
	})

	excluded := make(map[string]bool, len(d.cfg.DigestExclude))
	for _, name := range d.cfg.DigestExclude {
		excluded[name] = true
	}

	var diags []Diagnostic
	add := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: d.Name(),
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	fields := make(map[string]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fields[f.Name()] = true
		switch {
		case referenced[f.Name()] && excluded[f.Name()]:
			add(f.Pos(), "field %s.%s is on the digest exclusion list but %s() references it; the list must only name fields the digest ignores",
				named.Obj().Name(), f.Name(), d.cfg.DigestMethod)
		case !referenced[f.Name()] && !excluded[f.Name()]:
			add(f.Pos(), "field %s.%s is not encoded by %s() and not on the digest exclusion list %v; a cached result would be served for scenarios differing in it — encode the field (and bump the digest version) or exclude it explicitly",
				named.Obj().Name(), f.Name(), d.cfg.DigestMethod, d.cfg.DigestExclude)
		}
	}
	for _, name := range d.cfg.DigestExclude {
		if !fields[name] {
			add(digest.Pos(), "digest exclusion list entry %q names no field of %s; remove the stale entry",
				name, named.Obj().Name())
		}
	}
	return diags
}

// methodDecl finds the declaration of a value- or pointer-receiver
// method on the named type within the package's files.
func methodDecl(pkg *Package, named *types.Named, name string) *ast.FuncDecl {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() {
				return fd
			}
		}
	}
	return nil
}
