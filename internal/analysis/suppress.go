package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments have the form
//
//	//lint:allow rule[,rule...] [justification]
//
// and silence the named rules:
//
//   - on the same source line as the comment (trailing comment), or
//   - on the line immediately below (comment on its own line), or
//   - throughout a declaration, when the comment is part of a func or
//     type doc comment.
//
// The justification text is free-form but required: an allow without
// one is a stalelint finding, so every kept violation is a written
// decision.
const allowPrefix = "//lint:allow"

// allowSite is one (comment, rule) suppression. Every rule named on an
// allow line gets its own site, so a multi-rule comment can be live for
// one rule and stale for another. suppressed() marks the site it used;
// stalelint reports the sites nothing used.
type allowSite struct {
	pos      token.Position // the comment's own position
	rule     string
	used     bool
	noReason bool // the comment names rules and nothing else
}

// suppressor answers "is this diagnostic allowed?" for one package and
// remembers which allow comments earned their keep.
type suppressor struct {
	// lines maps filename -> line -> sites anchored at that line.
	lines map[string]map[int][]*allowSite
	// spans are whole-declaration suppressions from doc comments; they
	// share site records with lines, so a hit through either path marks
	// the same comment used.
	spans []supSpan
	// sites lists every site once, in file/comment order, for the
	// staleness sweep.
	sites []*allowSite
}

type supSpan struct {
	file       string
	start, end int
	sites      []*allowSite
}

// parseAllow extracts the rule list from one comment, or nil, and
// whether a justification follows it. Order is preserved so
// diagnostics about the comment stay byte-stable.
func parseAllow(text string) (rules []string, reason bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	seen := make(map[string]bool)
	for _, r := range strings.Split(fields[0], ",") {
		if r = strings.TrimSpace(r); r != "" && !seen[r] {
			seen[r] = true
			rules = append(rules, r)
		}
	}
	return rules, len(fields) > 1
}

func newSuppressor(pkg *Package) *suppressor {
	s := &suppressor{lines: make(map[string]map[int][]*allowSite)}
	// One site per (comment, rule), registered at the comment's line and
	// shared with any doc-comment span below.
	byComment := make(map[*ast.Comment][]*allowSite)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, reason := parseAllow(c.Text)
				if rules == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := s.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowSite)
					s.lines[pos.Filename] = byLine
				}
				for _, r := range rules {
					site := &allowSite{pos: pos, rule: r, noReason: !reason}
					byLine[pos.Line] = append(byLine[pos.Line], site)
					byComment[c] = append(byComment[c], site)
					s.sites = append(s.sites, site)
				}
			}
		}
		// Doc-comment allows cover the whole declaration (for a GenDecl
		// group, every spec in the group).
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			var sites []*allowSite
			for _, c := range doc.List {
				sites = append(sites, byComment[c]...)
			}
			if len(sites) == 0 {
				continue
			}
			start := pkg.Fset.Position(decl.Pos())
			end := pkg.Fset.Position(decl.End())
			s.spans = append(s.spans, supSpan{
				file: start.Filename, start: start.Line, end: end.Line, sites: sites,
			})
		}
	}
	return s
}

// suppressed reports whether d is covered by an allow comment, marking
// the first covering site used.
func (s *suppressor) suppressed(d Diagnostic) bool {
	if byLine := s.lines[d.Pos.Filename]; byLine != nil {
		// Same line (trailing comment) or the line above (standalone
		// comment preceding the flagged statement).
		for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			for _, site := range byLine[line] {
				if site.rule == d.Rule {
					site.used = true
					return true
				}
			}
		}
	}
	for _, span := range s.spans {
		if span.file != d.Pos.Filename || d.Pos.Line < span.start || span.end < d.Pos.Line {
			continue
		}
		for _, site := range span.sites {
			if site.rule == d.Rule {
				site.used = true
				return true
			}
		}
	}
	return false
}
