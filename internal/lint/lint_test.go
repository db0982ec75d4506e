package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// newTestLoader returns a loader rooted at the enclosing module.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// goldenCases maps each fixture under testdata/ to the synthetic import
// path it is checked under and the passes that should fire on it.  The
// determinism and suppress fixtures opt into the deterministic package set
// through their paths; the others are scope-free.
var goldenCases = []struct {
	name   string
	path   string
	passes []string
}{
	{"determinism", "nvscavenger/internal/pipeline/lintfixture", []string{"determinism"}},
	{"metricname", "nvscavenger/internal/lintfixture/metricname", []string{"metricname"}},
	{"errcontract", "nvscavenger/internal/lintfixture/errcontract", []string{"errcontract"}},
	{"stickysink", "nvscavenger/internal/lintfixture/stickysink", []string{"stickysink"}},
	{"suppress", "nvscavenger/internal/trace/lintfixture", []string{"determinism"}},
	{"lockorder", "nvscavenger/internal/lintfixture/lockorder", []string{"lockorder"}},
	{"ctxflow", "nvscavenger/internal/runner/lintfixture", []string{"ctxflow"}},
}

func TestGoldenFixtures(t *testing.T) {
	loader := newTestLoader(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := loader.LoadAs(filepath.Join("testdata", tc.name), tc.path)
			if err != nil {
				t.Fatalf("LoadAs(%s): %v", tc.name, err)
			}
			suite, err := NewSuite(tc.passes...)
			if err != nil {
				t.Fatalf("NewSuite: %v", err)
			}
			var sb strings.Builder
			for _, d := range suite.Run([]*Package{pkg}) {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()

			goldenFile := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenFile)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestSuppressionDirective pins the two behaviours the suppress fixture
// demonstrates: a well-formed //nvlint:ignore removes the finding, and a
// directive without a reason is malformed — it suppresses nothing and is
// itself reported under the "nvlint" pseudo-pass.
func TestSuppressionDirective(t *testing.T) {
	loader := newTestLoader(t)
	pkg, err := loader.LoadAs(filepath.Join("testdata", "suppress"), "nvscavenger/internal/trace/lintfixture")
	if err != nil {
		t.Fatalf("LoadAs: %v", err)
	}
	suite, err := NewSuite("determinism")
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	diags := suite.Run([]*Package{pkg})

	var passes []string
	for _, d := range diags {
		passes = append(passes, d.Pass)
		if strings.Contains(d.String(), "fixture.go:12") {
			t.Errorf("suppressed finding leaked through: %s", d)
		}
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (malformed directive + unsuppressed finding), got %d: %v", len(diags), passes)
	}
	if diags[0].Pass != "nvlint" || !strings.Contains(diags[0].Message, "malformed ignore directive") {
		t.Errorf("want malformed-directive diagnostic first, got %s", diags[0])
	}
	if diags[1].Pass != "determinism" || diags[1].Line != 18 {
		t.Errorf("want the unsuppressed time.Now finding at line 18, got %s", diags[1])
	}
}

// TestSelfCheck runs every pass over the repository's own source and
// demands a clean bill: the tree must stay lint-clean, and any sanctioned
// exception must be visible as an allowlist entry or inline suppression.
func TestSelfCheck(t *testing.T) {
	loader := newTestLoader(t)
	pkgs, err := loader.Load(loader.Root, "./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	suite, err := NewSuite()
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	diags := suite.Run(pkgs)
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

func TestNewSuiteUnknownPass(t *testing.T) {
	_, err := NewSuite("nope")
	if err == nil {
		t.Fatal("want error for unknown pass")
	}
	if !strings.Contains(err.Error(), `unknown pass "nope"`) {
		t.Errorf("error should name the unknown pass: %v", err)
	}
	for _, name := range PassNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should list known pass %q: %v", name, err)
		}
	}
}

func TestPassRegistry(t *testing.T) {
	want := []string{"ctxflow", "determinism", "errcontract", "lockorder", "metricname", "stickysink"}
	got := PassNames()
	if len(got) != len(want) {
		t.Fatalf("PassNames = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("PassNames = %v, want %v", got, want)
		}
		if PassDoc(name) == "" {
			t.Errorf("pass %q has no doc", name)
		}
	}
}
