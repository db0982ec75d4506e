package experiments

import (
	"errors"
	"strings"
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/memtrace"
)

// failingApp fails its setup with a fixed error, so every run of it fails
// the same way.
type failingApp struct{ name string }

func (f *failingApp) Name() string                     { return f.name }
func (f *failingApp) Description() string              { return "fails every run" }
func (f *failingApp) Setup(*memtrace.Tracer) error     { return errors.New("boom " + f.name) }
func (f *failingApp) Step(*memtrace.Tracer, int) error { return nil }
func (f *failingApp) Post(*memtrace.Tracer) error      { return nil }
func (f *failingApp) Check() error                     { return nil }

func init() {
	for _, name := range []string{"experiments-fail-a", "experiments-fail-b"} {
		apps.Register(name, func(float64) apps.App { return &failingApp{name: name} })
	}
}

// TestHealthyFanOutErrorIsDeterministic: a healthy session runs every
// sibling of a fan-out, so the returned error names every failed item in
// input order and is the same at any jobs count and on every repetition.
func TestHealthyFanOutErrorIsDeterministic(t *testing.T) {
	var want string
	for _, jobs := range []int{1, 4} {
		for rep := 0; rep < 10; rep++ {
			s := NewSession(WithScale(0.05), WithIterations(2), WithJobs(jobs),
				WithApps("experiments-fail-a", "gtc", "experiments-fail-b"))
			_, err := s.Table1()
			if err == nil {
				t.Fatalf("jobs=%d rep=%d: Table1 succeeded with two failing apps", jobs, rep)
			}
			got := err.Error()
			a := strings.Index(got, "boom experiments-fail-a")
			b := strings.Index(got, "boom experiments-fail-b")
			if a < 0 || b < a {
				t.Fatalf("jobs=%d rep=%d: err = %q, want both failures in input order", jobs, rep, got)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("jobs=%d rep=%d: err = %q, want %q", jobs, rep, got, want)
			}
		}
	}
}
