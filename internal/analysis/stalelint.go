package analysis

// StaleLint reports //lint:allow comments that no longer suppress
// anything — the suppression debt left behind when the code a finding
// pointed at is fixed or deleted but the allow line lingers. It is
// framework-driven rather than a normal Pass: Run() executes every
// other selected analyzer first, then asks the package's suppressor
// which allow sites were never consulted. A rule is only judged when
// its analyzer actually ran this invocation (running `-only floateq`
// must not condemn every other allow in the tree); a rule name no
// analyzer has ever registered is always reported, and so is an allow
// that gives no reason. Allow sites naming stalelint itself are exempt
// from the staleness judgement — a suppression of the staleness report
// is consulted by the report, not by an analyzer pass.
var StaleLint = &Analyzer{
	Name: "stalelint",
	Doc:  "//lint:allow comments that no longer suppress anything",
	// Run is intentionally empty: see the special case in analysis.Run.
	Run: func(*Pass) {},
}

// staleDiags sweeps a package's suppressor after the analyzers ran.
// ran holds the rules whose analyzers executed this invocation; known
// holds every registered rule name.
func staleDiags(s *suppressor, ran, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, site := range s.sites {
		if site.noReason {
			out = append(out, Diagnostic{
				Pos:     site.pos,
				Rule:    StaleLint.Name,
				Message: "//lint:allow " + site.rule + " gives no reason",
			})
		}
		if site.used || site.rule == StaleLint.Name {
			continue
		}
		if !known[site.rule] {
			out = append(out, Diagnostic{
				Pos:     site.pos,
				Rule:    StaleLint.Name,
				Message: "//lint:allow names unknown rule \"" + site.rule + "\"",
			})
			continue
		}
		if ran[site.rule] {
			out = append(out, Diagnostic{
				Pos:     site.pos,
				Rule:    StaleLint.Name,
				Message: "//lint:allow " + site.rule + " no longer suppresses anything; remove it",
			})
		}
	}
	return out
}
