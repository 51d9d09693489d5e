// Package analysis is a small static-analysis framework for this
// repository, built only on the standard library's go/parser, go/ast,
// go/types and go/importer (no golang.org/x/tools dependency).
//
// The framework loads every package of the module (Loader), type-checks
// it against compiled stdlib export data, and runs a table of
// repo-specific analyzers (All) over each package. Analyzers are pure
// functions over a loaded, type-checked package; they report
// diagnostics through Pass.Reportf and never mutate anything. The
// framework owns everything else: file-set loading, build-constraint
// filtering, per-package type checking, //lint:allow suppression
// comments and deterministic diagnostic ordering — adding analyzer N+1
// is the ~50 lines of its Run function plus a table entry.
//
// The rules encode the invariants PRs 1–3 established by convention:
// seeded determinism (bit-identical recognition and kernel results
// across Workers counts), goroutine/context hygiene in the streams
// backbone, allocation-free kernel hot loops, tolerance-based
// float comparison, and the Item-ownership contract the supervision /
// dead-letter machinery depends on. cmd/insightlint is the driver;
// `make lint` gates the tree on a clean run.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical file:line:col: [rule] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects the package behind pass and
// reports findings; it must be deterministic and side-effect free.
type Analyzer struct {
	Name string // short rule name, used in [rule] output and //lint:allow
	Doc  string // one-line description of the invariant the rule guards
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All is the analyzer table, in documentation order. Adding a rule
// means appending here; -only/-skip and suppression work unchanged.
var All = []*Analyzer{
	NoDeterminism,
	GoroutineLeak,
	HotAlloc,
	FloatEq,
	LockCopy,
	ItemAlias,
	ErrDrop,
	SnapshotDrift,
	LockGuard,
	DurOrder,
	StaleLint,
}

// Select resolves -only/-skip comma-separated rule lists against All.
// Empty strings mean "no restriction". Unknown rule names are errors so
// a typo cannot silently disable the gate.
func Select(only, skip string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	check := func(list string) (map[string]bool, error) {
		if strings.TrimSpace(list) == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(Names(), ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := check(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := check(skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the registered rule names in table order.
func Names() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// Run executes the analyzers over the packages, drops findings
// suppressed by //lint:allow comments and returns the rest sorted by
// file, line, column and rule — byte-stable across runs, which is
// itself one of the invariants the suite enforces.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// stalelint is framework-driven: it judges the suppressor state left
	// behind by every other selected analyzer, so it runs after them
	// rather than through its own Pass (see stalelint.go).
	ran := make(map[string]bool)
	runStale := false
	for _, a := range analyzers {
		if a.Name == StaleLint.Name {
			runStale = true
		} else {
			ran[a.Name] = true
		}
	}
	known := make(map[string]bool, len(All))
	for _, a := range All {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := newSuppressor(pkg)
		for _, a := range analyzers {
			if a.Name == StaleLint.Name {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if !sup.suppressed(d) {
					out = append(out, d)
				}
			}
		}
		if runStale {
			for _, d := range staleDiags(sup, ran, known) {
				if !sup.suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}
