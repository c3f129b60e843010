package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// obsNaming enforces the observability naming contracts:
//
//   - every metric name passed to the obs.Registry constructors and
//     every label key built with obs.L (or an obs.Label literal) must
//     be a string literal — so the CI /metrics greps can find them —
//     prefixed with Config.MetricPrefix and in snake_case;
//   - every flight-recorder event name passed to Recorder.Record, every
//     run kind passed to RunRegistry.NewRun, and every event field key
//     built with obs.F (or an obs.Field literal) must be a literal
//     snake_case string, so /debug/events dumps stay greppable and the
//     event taxonomy documented in DESIGN.md stays complete.
//
// A computed name would compile today and silently vanish from the
// scrape and dump assertions tomorrow.
type obsNaming struct {
	cfg       Config
	nameRx    *regexp.Regexp
	labelRx   *regexp.Regexp
	eventRx   *regexp.Regexp
	registryM map[string]bool
}

// The literal/mismatch rationales per surface. The metric strings are
// load-bearing for the obsbad golden package — change them there too.
const (
	metricLitWhy   = "so the CI /metrics greps can see it; build the series with literal names and label values instead"
	metricMatchWhy = "(prefixed snake_case keeps the scrape surface greppable and collision-free)"
	eventLitWhy    = "so /debug/events dump greps can see it; record literal names with computed field values instead"
	eventMatchWhy  = "(snake_case keeps the flight-recorder event taxonomy greppable and collision-free)"
)

func newObsNaming(cfg Config) *obsNaming {
	return &obsNaming{
		cfg:     cfg,
		nameRx:  regexp.MustCompile(`^` + regexp.QuoteMeta(cfg.MetricPrefix) + `[a-z0-9]+(_[a-z0-9]+)*$`),
		labelRx: regexp.MustCompile(`^[a-z][a-z0-9_]*$`),
		eventRx: regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`),
		registryM: map[string]bool{
			"Counter": true, "CounterFunc": true,
			"Gauge": true, "GaugeFunc": true,
			"Histogram": true,
		},
	}
}

func (o *obsNaming) Name() string { return "obs-naming" }
func (o *obsNaming) Doc() string {
	return "metric, label, event and run-kind names must be literal snake_case strings"
}
func (o *obsNaming) Package(pkg *Package) []Diagnostic {
	if pkg.Path == o.cfg.ObsPath {
		return nil // the registry's own internals aren't call sites
	}
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: o.Name(),
			Pos:      pkg.Fset.Position(n.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					return true
				}
				// Method calls on the obs types: reg.Counter(name, ...),
				// rec.Record(event, ...), runs.NewRun(kind, ...).
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					switch {
					case o.registryM[sel.Sel.Name] && o.isObsType(s.Recv(), "Registry"):
						o.checkLiteral(n.Args[0], "metric name", o.nameRx,
							metricLitWhy, metricMatchWhy, add)
					case sel.Sel.Name == "Record" && o.isObsType(s.Recv(), "Recorder"):
						o.checkLiteral(n.Args[0], "event name", o.eventRx,
							eventLitWhy, eventMatchWhy, add)
					case sel.Sel.Name == "NewRun" && o.isObsType(s.Recv(), "RunRegistry"):
						o.checkLiteral(n.Args[0], "run kind", o.eventRx,
							eventLitWhy, eventMatchWhy, add)
					}
				}
				// Constructors: obs.L(key, value), obs.F(key, value).
				switch pkgNameOf(pkg.Info, sel.X) {
				case o.cfg.ObsPath:
					switch sel.Sel.Name {
					case "L":
						o.checkLiteral(n.Args[0], "label key", o.labelRx,
							metricLitWhy, metricMatchWhy, add)
					case "F":
						o.checkLiteral(n.Args[0], "event field key", o.labelRx,
							eventLitWhy, eventMatchWhy, add)
					}
				}
			case *ast.CompositeLit:
				// obs.Label{Key: ...} and obs.Field{Key: ...} literals.
				t := pkg.Info.TypeOf(n)
				named, ok := t.(*types.Named)
				if !ok || named.Obj().Pkg() == nil ||
					named.Obj().Pkg().Path() != o.cfg.ObsPath {
					return true
				}
				var what, litWhy, matchWhy string
				switch named.Obj().Name() {
				case "Label":
					what, litWhy, matchWhy = "label key", metricLitWhy, metricMatchWhy
				case "Field":
					what, litWhy, matchWhy = "event field key", eventLitWhy, eventMatchWhy
				default:
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Key" {
							o.checkLiteral(kv.Value, what, o.labelRx, litWhy, matchWhy, add)
						}
					}
				}
			}
			return true
		})
	}
	return diags
}

// isObsType reports whether t is (a pointer to) the named type from the
// obs package.
func (o *obsNaming) isObsType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == o.cfg.ObsPath
}

// checkLiteral requires expr to be a string literal matching rx; litWhy
// and matchWhy carry the surface-specific rationale.
func (o *obsNaming) checkLiteral(expr ast.Expr, what string, rx *regexp.Regexp,
	litWhy, matchWhy string, add func(ast.Node, string, ...any)) {
	e := expr
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		add(expr, "%s must be a string literal %s", what, litWhy)
		return
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !rx.MatchString(s) {
		add(expr, "%s %q must match %s %s", what, s, rx, matchWhy)
	}
}
