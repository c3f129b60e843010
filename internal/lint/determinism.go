package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// determinism enforces the schedule-determinism contract in the
// schedule-critical packages (Config.CriticalPaths): every run must be
// a pure function of its scenario spec, so
//
//   - ranging over a map is flagged unless the iteration feeds a sort
//     in the same function or carries //lint:ordered <why>;
//   - wall-clock reads (time.Now/Since/Until/Sleep) are flagged unless
//     annotated //lint:wallclock <why>;
//   - the global math/rand source is flagged outright (randomness must
//     derive from the scenario seed);
//   - select sources keyed by a map lookup are flagged outright (the
//     runtime picks a ready case pseudo-randomly, and a map-keyed
//     channel makes even the case set schedule-dependent).
func determinism(cfg Config, pkg *Package) []Diagnostic {
	if !matchesAny(pkg.Path, cfg.CriticalPaths) {
		return nil
	}
	var diags []Diagnostic
	add := func(pos ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "determinism",
			Pos:      pkg.Fset.Position(pos.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	annotated := func(verb string, n ast.Node) bool {
		ok, bare := pkg.suppressed(verb, n.Pos())
		if bare != nil {
			add(n, "//lint:%s needs a justification: //lint:%s <why>", verb, verb)
			return true
		}
		return ok
	}
	for _, file := range pkg.Files {
		bodies := funcBodies(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pkg.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if annotated(dirOrdered, n) || feedsSort(pkg, bodies.enclosing(n), n, cfg.SortFuncs) {
					return true
				}
				add(n, "map iteration order is schedule-dependent (range over %s); feed it into a sort or annotate //lint:ordered <why>", t)

			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch pkgNameOf(pkg.Info, sel.X) {
				case "time":
					switch sel.Sel.Name {
					case "Now", "Since", "Until", "Sleep":
						if !annotated(dirWallclock, n) {
							add(n, "wall clock (time.%s) in a schedule-critical package; results must derive from the scenario alone — annotate //lint:wallclock <why> if this only measures, never decides", sel.Sel.Name)
						}
					}
				}

			case *ast.SelectorExpr:
				switch pkgNameOf(pkg.Info, n.X) {
				case "math/rand", "math/rand/v2":
					if _, isType := pkg.Info.Uses[n.Sel].(*types.TypeName); isType {
						return true // rand.Rand/rand.Source in a signature reads no state
					}
					switch n.Sel.Name {
					case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
						// Explicitly seeded generators are fine; only the
						// shared global source is irreproducible.
					default:
						add(n, "global math/rand source (rand.%s) is not derived from the scenario seed; use ids.NewRand(seed)", n.Sel.Name)
					}
				}

			case *ast.SelectStmt:
				for _, clause := range n.Body.List {
					cc := clause.(*ast.CommClause)
					if cc.Comm == nil {
						continue // default case
					}
					if ch := commChannel(cc.Comm); ch != nil {
						if idx := mapIndexIn(pkg.Info, ch); idx != nil {
							add(idx, "select source is keyed by a map lookup; the ready-case set becomes iteration-order dependent — resolve the channel deterministically before the select")
						}
					}
				}
			}
			return true
		})
	}
	return diags
}

// commChannel extracts the channel expression of one select comm
// clause: the target of a send, or the operand of the receive.
func commChannel(stmt ast.Stmt) ast.Expr {
	switch s := stmt.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok {
			return u.X
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if u, ok := rhs.(*ast.UnaryExpr); ok {
				return u.X
			}
		}
	}
	return nil
}

// mapIndexIn returns the first index expression over a map inside expr.
func mapIndexIn(info *types.Info, expr ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if t := info.TypeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				found = idx
				return false
			}
		}
		return true
	})
	return found
}

// bodyIndex locates the innermost function body enclosing a node, so
// the feeds-a-sort check can scan the right scope.
type bodyIndex []*ast.BlockStmt

func funcBodies(file *ast.File) bodyIndex {
	var bodies bodyIndex
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

func (b bodyIndex) enclosing(n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, body := range b {
		if body.Pos() <= n.Pos() && n.End() <= body.End() {
			if best == nil || body.Pos() > best.Pos() {
				best = body
			}
		}
	}
	return best
}

// feedsSort reports whether the map-range loop only accumulates into
// variables that are subsequently sorted in the same function: the
// canonical collect-keys-then-sort idiom, which is order-independent by
// construction.
func feedsSort(pkg *Package, body *ast.BlockStmt, loop *ast.RangeStmt, sortFuncs map[string][]string) bool {
	if body == nil {
		return false
	}
	// Variables written inside the loop body.
	sinks := make(map[types.Object]bool)
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range asg.Lhs {
			if id, ok := baseIdent(lhs); ok {
				if obj := pkg.Info.ObjectOf(id); obj != nil {
					sinks[obj] = true
				}
			}
		}
		return true
	})
	if len(sinks) == 0 {
		return false
	}
	// A sort call after the loop whose arguments mention a sink.
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSortCall(pkg.Info, sel, sortFuncs) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && sinks[pkg.Info.ObjectOf(id)] {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}

// isSortCall recognizes sort.*, slices.Sort*, and the configured
// repo-specific sorting helpers.
func isSortCall(info *types.Info, sel *ast.SelectorExpr, sortFuncs map[string][]string) bool {
	path := pkgNameOf(info, sel.X)
	switch path {
	case "sort":
		return true
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	for _, name := range sortFuncs[path] {
		if sel.Sel.Name == name {
			return true
		}
	}
	return false
}

// baseIdent peels index/selector/star layers off an lvalue to its base
// identifier: keys[i] → keys, *p → p.
func baseIdent(expr ast.Expr) (*ast.Ident, bool) {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e, true
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil, false
		}
	}
}
