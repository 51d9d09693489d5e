package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files under testdata")

var (
	loaderOnce sync.Once
	loaderErr  error
	testLoader *Loader
)

// fixtureLoader returns a shared Loader rooted at the repo module so
// every fixture package reuses one FileSet and one stdlib importer.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoader
}

func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := fixtureLoader(t).LoadDir(abs, importPath)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return pkg
}

// render formats diagnostics the way cmd/insightlint does, with the
// file path reduced to its base name so goldens are location-stable.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// goldenCases maps each analyzer to its fixture directory and the
// import path it is loaded under. The import paths for nodeterminism,
// hotalloc and durorder end in suffixes that match those analyzers'
// package gates ("rtec", "internal/linalg", "traffic", "crowd", "gp",
// "interval", "wal"). A case may run a
// wider analyzer set than the one it is named for: stalelint only
// judges rules whose analyzers ran, so its golden runs All.
var goldenCases = []struct {
	analyzer   *Analyzer
	dir        string
	importPath string
	analyzers  []*Analyzer // defaults to just analyzer
}{
	{NoDeterminism, "nodeterminism", "fixture/rtec", nil},
	{GoroutineLeak, "goroutineleak", "fixture/goroutineleak", nil},
	{HotAlloc, "hotalloc", "fixture/internal/linalg", nil},
	{HotAlloc, "hotalloc_batch", "fixture/streams", nil},
	{HotAlloc, "hotalloc_admit", "fixture/insight", nil},
	{HotAlloc, "hotalloc_convert", "fixture/dublin", nil},
	{HotAlloc, "hotalloc_colstore", "fixture/colstore/rtec", nil},
	{HotAlloc, "hotalloc_rules", "fixture/traffic", nil},
	{HotAlloc, "hotalloc_crowd", "fixture/crowd", nil},
	{HotAlloc, "hotalloc_gp", "fixture/gp", nil},
	{HotAlloc, "hotalloc_fold", "fixture/fold/rtec", nil},
	{HotAlloc, "hotalloc_interval", "fixture/interval", nil},
	{HotAlloc, "hotalloc_wal", "fixture/wal", nil},
	{FloatEq, "floateq", "fixture/floateq", nil},
	{LockCopy, "lockcopy", "fixture/lockcopy", nil},
	{ItemAlias, "itemalias", "fixture/itemalias", nil},
	{ErrDrop, "errdrop", "fixture/streams/wal", nil},
	{SnapshotDrift, "snapshotdrift", "fixture/snapshotdrift", nil},
	{LockGuard, "lockguard", "fixture/lockguard", nil},
	{DurOrder, "durorder", "fixture/durorder/wal", nil},
	{StaleLint, "stalelint", "fixture/stalelint", All},
}

func TestAnalyzerGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.importPath)
			analyzers := tc.analyzers
			if analyzers == nil {
				analyzers = []*Analyzer{tc.analyzer}
			}
			got := render(Run([]*Package{pkg}, analyzers))
			goldenPath := filepath.Join("testdata", tc.dir, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.analyzer.Name, got, want)
			}
		})
	}
}

// TestSuppression pins the three suppression-comment forms to
// functions in the fixtures that violate their rule but must not be
// reported: same-line, line-above, and doc-comment allows.
func TestSuppression(t *testing.T) {
	cases := []struct {
		analyzer   *Analyzer
		dir        string
		importPath string
		allowed    []string // substrings that must NOT appear in any diagnostic line
	}{
		// Same-line allow on the time.Now call in AllowedStamp.
		{NoDeterminism, "nodeterminism", "fixture/rtec", []string{"fixture.go:21:"}},
		// Line-above allow on the go statement in AllowedLeak.
		{GoroutineLeak, "goroutineleak", "fixture/goroutineleak", []string{"fixture.go:87:"}},
		// Doc-comment allow covering the whole Allowed declaration.
		{LockCopy, "lockcopy", "fixture/lockcopy", []string{"fixture.go:56:"}},
		// Same-line allow on the quiet.y field declaration.
		{SnapshotDrift, "snapshotdrift", "fixture/snapshotdrift", []string{"fixture.go:76:"}},
		// Same-line allow on the racy read in counter.Peek.
		{LockGuard, "lockguard", "fixture/lockguard", []string{"fixture.go:41:"}},
		// Same-line allow on the early forward in sink.lossyForward.
		{DurOrder, "durorder", "fixture/durorder/wal", []string{"fixture.go:33:"}},
	}
	for _, tc := range cases {
		pkg := loadFixture(t, tc.dir, tc.importPath)
		out := render(Run([]*Package{pkg}, []*Analyzer{tc.analyzer}))
		for _, loc := range tc.allowed {
			if strings.Contains(out, loc) {
				t.Errorf("%s: suppressed site %s still reported:\n%s", tc.analyzer.Name, loc, out)
			}
		}
		if !strings.Contains(out, "fixture.go") {
			t.Errorf("%s: expected unsuppressed findings alongside the allowed ones, got none", tc.analyzer.Name)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(All) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, want %d", len(all), len(All))
	}

	only, err := Select("floateq,hotalloc", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 || only[0].Name != "floateq" && only[1].Name != "floateq" {
		t.Fatalf("Select(only) returned %v", names(only))
	}

	skipped, err := Select("", "nodeterminism")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != len(All)-1 {
		t.Fatalf("Select(skip) = %d analyzers, want %d", len(skipped), len(All)-1)
	}
	for _, a := range skipped {
		if a.Name == "nodeterminism" {
			t.Fatal("Select(skip) kept the skipped analyzer")
		}
	}

	if _, err := Select("nosuchrule", ""); err == nil {
		t.Fatal("Select with unknown -only name did not error")
	}
	if _, err := Select("", "nosuchrule"); err == nil {
		t.Fatal("Select with unknown -skip name did not error")
	}
}

// TestSelectFiltersFindings drives a fixture through Run with a
// Select-ed analyzer list, mirroring the driver's -only flag: the
// selected rule reports, the others stay silent.
func TestSelectFiltersFindings(t *testing.T) {
	pkg := loadFixture(t, "floateq", "fixture/floateq")
	sel, err := Select("goroutineleak", "")
	if err != nil {
		t.Fatal(err)
	}
	if out := render(Run([]*Package{pkg}, sel)); out != "" {
		t.Errorf("-only goroutineleak over the floateq fixture reported:\n%s", out)
	}
	sel, err = Select("floateq", "")
	if err != nil {
		t.Fatal(err)
	}
	if out := render(Run([]*Package{pkg}, sel)); !strings.Contains(out, "[floateq]") {
		t.Errorf("-only floateq over the floateq fixture reported nothing")
	}
}

// TestDiagnosticOrder checks Run's output is sorted by position.
func TestDiagnosticOrder(t *testing.T) {
	pkg := loadFixture(t, "floateq", "fixture/floateq")
	diags := Run([]*Package{pkg}, []*Analyzer{FloatEq})
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

func names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
