package analysis

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		want   []string
		reason bool
	}{
		{"//lint:allow floateq reason", []string{"floateq"}, true},
		{"//lint:allow floateq", []string{"floateq"}, false},
		{"//lint:allow\tfloateq tab separator", []string{"floateq"}, true},
		{"//lint:allow floateq,lockcopy both", []string{"floateq", "lockcopy"}, true},
		{"//lint:allow floateq,floateq,lockcopy deduped", []string{"floateq", "lockcopy"}, true},
		{"//lint:allow floateq, lockcopy space splits the list", []string{"floateq"}, true},
		{"//lint:allowfloateq no separator", nil, false},
		{"//lint:allow", nil, false},
		{"// lint:allow floateq not a directive", nil, false},
		{"//lint:deny floateq wrong verb", nil, false},
	}
	for _, tc := range cases {
		got, reason := parseAllow(tc.text)
		if !reflect.DeepEqual(got, tc.want) || reason != tc.reason {
			t.Errorf("parseAllow(%q) = %v, %v; want %v, %v", tc.text, got, reason, tc.want, tc.reason)
		}
	}
}

// suppressOut runs floateq, lockcopy and stalelint over the suppress
// fixture and returns the rendered diagnostics.
func suppressOut(t *testing.T) string {
	t.Helper()
	pkg := loadFixture(t, "suppress", "fixture/suppress")
	return render(Run([]*Package{pkg}, []*Analyzer{FloatEq, LockCopy, StaleLint}))
}

// TestMultiRuleAllow pins the two multi-rule shapes: an allow whose
// rules are both live suppresses both findings and is never stale; an
// allow with a dead half suppresses the live rule and surfaces the
// dead one through stalelint.
func TestMultiRuleAllow(t *testing.T) {
	out := suppressOut(t)
	// Same (line 17) violates both rules on one line: both suppressed.
	if strings.Contains(out, "fixture.go:17:") && !strings.Contains(out, "[stalelint]") {
		t.Errorf("multi-rule allow with both halves live still reported:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "fixture.go:17:") {
			t.Errorf("line 17 should be fully suppressed, got: %s", line)
		}
	}
	// Cmp's comparison (line 22) is suppressed...
	if strings.Contains(out, "fixture.go:22: [floateq]") {
		t.Errorf("floateq half of the partial allow did not suppress:\n%s", out)
	}
	// ...and the dead lockcopy half is reported stale at the comment.
	if !strings.Contains(out, "//lint:allow lockcopy no longer suppresses anything") {
		t.Errorf("stale lockcopy half of the multi-rule allow not reported:\n%s", out)
	}
	// The fully-live allow on line 17 must not be called stale.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "fixture.go:17:") && strings.Contains(line, "[stalelint]") {
			t.Errorf("live multi-rule allow reported stale: %s", line)
		}
	}
}

// TestDeclGroupSpan checks a doc-comment allow on a var (...) group
// reaches every spec in the group, including ones separated from the
// comment by more than one line.
func TestDeclGroupSpan(t *testing.T) {
	out := suppressOut(t)
	for _, loc := range []string{"fixture.go:32:", "fixture.go:34:"} {
		if strings.Contains(out, loc) {
			t.Errorf("group-spec finding at %s escaped the doc-comment allow:\n%s", loc, out)
		}
	}
	if strings.Contains(out, "group-wide") {
		t.Errorf("the group allow was reported stale despite suppressing specs:\n%s", out)
	}
}

// TestGeneratedFileAllow checks generated files get no special
// treatment: findings are still reported there, and allow lines still
// suppress them.
func TestGeneratedFileAllow(t *testing.T) {
	out := suppressOut(t)
	if strings.Contains(out, "generated.go:8:") {
		t.Errorf("allowed finding in generated file still reported:\n%s", out)
	}
	if !strings.Contains(out, "generated.go:13:") {
		t.Errorf("bare finding in generated file not reported:\n%s", out)
	}
}
