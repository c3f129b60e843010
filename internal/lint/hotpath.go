package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// hotPath enforces the reflection-free delivery contract in the
// simulator packages (Config.HotPaths): no fmt calls (every one
// reflects over its arguments), no reflect package use, and no
// explicit boxing conversions into empty interfaces. Two escapes are
// designed in:
//
//   - the designated fallback files (Config.HotAllowFiles) hold the
//     documented unregistered-payload slow path and are exempt;
//   - a fmt call whose result feeds a panic argument is a cold path by
//     definition (the run is already unwinding) and is allowed.
type hotPath struct {
	cfg Config
}

func newHotPath(cfg Config) *hotPath { return &hotPath{cfg: cfg} }

func (h *hotPath) Name() string { return "hotpath-allocs" }
func (h *hotPath) Doc() string {
	return "forbid fmt, reflect, and explicit any-boxing in the simulator hot path outside the designated fallback file"
}
func (h *hotPath) Package(pkg *Package) []Diagnostic {
	if !matchesAny(pkg.Path, h.cfg.HotPaths) {
		return nil
	}
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: h.Name(),
			Pos:      pkg.Fset.Position(n.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	allowed := make(map[string]bool, len(h.cfg.HotAllowFiles))
	for _, f := range h.cfg.HotAllowFiles {
		allowed[f] = true
	}
	for i, file := range pkg.Files {
		if allowed[filepath.Base(pkg.GoFiles[i])] {
			continue
		}
		h.walk(pkg, file, false, add)
	}
	return diags
}

// walk descends the file tracking whether the current node sits inside
// a panic argument (cold path).
func (h *hotPath) walk(pkg *Package, n ast.Node, inPanic bool, add func(ast.Node, string, ...any)) {
	if n == nil {
		return
	}
	if call, ok := n.(*ast.CallExpr); ok && isBuiltinPanic(pkg.Info, call.Fun) {
		for _, arg := range call.Args {
			h.walk(pkg, arg, true, add)
		}
		return
	}
	if ta, ok := n.(*ast.TypeAssertExpr); ok {
		// any(x).(T) is a capability probe: the box is consumed by the
		// assertion, never delivered, so only the operand is checked.
		if call, ok := ta.X.(*ast.CallExpr); ok && len(call.Args) == 1 && isAnyConversion(pkg.Info, call) {
			h.walk(pkg, call.Args[0], inPanic, add)
			return
		}
	}
	if sel, ok := n.(*ast.SelectorExpr); ok {
		switch pkgNameOf(pkg.Info, sel.X) {
		case "fmt":
			if !inPanic {
				add(sel, "fmt.%s reflects over its arguments on the simulator hot path; use the typed sim.Append* helpers, or move the call into the designated fallback file (%v)",
					sel.Sel.Name, h.cfg.HotAllowFiles)
			}
		case "reflect":
			add(sel, "reflect.%s on the simulator hot path; the delivery plane is contractually reflection-free", sel.Sel.Name)
		}
	}
	if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 && isAnyConversion(pkg.Info, call) && !inPanic {
		add(call, "explicit conversion boxes %s into an empty interface on the simulator hot path; keep payloads typed (or route them through the designated fallback file)",
			pkg.Info.TypeOf(call.Args[0]))
	}
	for _, child := range childNodes(n) {
		h.walk(pkg, child, inPanic, add)
	}
}

// childNodes enumerates direct children via ast.Inspect's first level.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// isAnyConversion reports whether the call is a conversion to an
// empty-interface type.
func isAnyConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	iface, ok := tv.Type.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
}

// isBuiltinPanic reports whether the call target is the predeclared
// panic.
func isBuiltinPanic(info *types.Info, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
