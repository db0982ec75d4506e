package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Exhibit maps a selector name to the generator that renders one table or
// figure of the paper's evaluation section onto a writer.
type Exhibit struct {
	Name string
	Gen  func(*Session, io.Writer) error
}

var objectFigures = map[string]struct {
	app string
	num int
}{
	"fig3": {"nek5000", 3},
	"fig4": {"cam", 4},
	"fig5": {"gtc", 5},
	"fig6": {"s3d", 6},
}

var varianceFigures = map[string]struct {
	app string
	num int
}{
	"fig8":  {"nek5000", 8},
	"fig9":  {"cam", 9},
	"fig10": {"s3d", 10},
	"fig11": {"gtc", 11},
}

// Exhibits returns the full registry in report order.  Both the nvreport
// CLI and the nvserved jobs API render from this single list, which is
// what keeps a served report byte-identical to the CLI's.
func Exhibits() []Exhibit {
	out := []Exhibit{
		{"table1", func(s *Session, w io.Writer) error {
			rows, err := s.Table1()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatTable1(rows))
			return err
		}},
		{"table5", func(s *Session, w io.Writer) error {
			rows, err := s.Table5()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatTable5(rows))
			return err
		}},
		{"fig2", func(s *Session, w io.Writer) error {
			recs, fig, err := s.Figure2()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatFigure2(recs, fig))
			return err
		}},
	}
	for _, key := range []string{"fig3", "fig4", "fig5", "fig6"} {
		spec := objectFigures[key]
		out = append(out, Exhibit{key, func(s *Session, w io.Writer) error {
			recs, err := s.ObjectFigure(spec.app)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatObjectFigure(spec.app, spec.num, recs))
			return err
		}})
	}
	out = append(out, Exhibit{"fig7", func(s *Session, w io.Writer) error {
		cdfs, err := s.Figure7()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, FormatFigure7(cdfs))
		return err
	}})
	for _, key := range []string{"fig8", "fig9", "fig10", "fig11"} {
		spec := varianceFigures[key]
		out = append(out, Exhibit{key, func(s *Session, w io.Writer) error {
			ratio, rate, err := s.VarianceFigure(spec.app)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatVarianceFigure(spec.app, spec.num, ratio, rate))
			return err
		}})
	}
	out = append(out,
		Exhibit{"table6", func(s *Session, w io.Writer) error {
			rows, err := s.Table6()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatTable6(rows))
			return err
		}},
		Exhibit{"fig12", func(s *Session, w io.Writer) error {
			rows, err := s.Figure12()
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w, FormatFigure12(rows)); err != nil {
				return err
			}
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%s: %s\n", r.App, FormatSweepShape(r.Results)); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintln(w)
			return err
		}},
		Exhibit{"placement", func(s *Session, w io.Writer) error {
			plans, err := s.Placement()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatPlacement(plans))
			return err
		}},
		Exhibit{"placementcmp", func(s *Session, w io.Writer) error {
			rows, err := s.PlacementComparison()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatPlacementComparison(rows))
			return err
		}},
		Exhibit{"hybrid", func(s *Session, w io.Writer) error {
			pts, err := s.HybridSweep("nek5000", []int{0, 8, 32, 128, 512, 2048})
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatHybridSweep("nek5000", pts))
			return err
		}},
		Exhibit{"checkpoint", func(s *Session, w io.Writer) error {
			pts, err := s.CheckpointStudy("nek5000", []int{1000, 10000, 100000, 500000, 1000000})
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatCheckpointStudy("nek5000", pts))
			return err
		}},
		Exhibit{"wear", func(s *Session, w io.Writer) error {
			rows, err := s.WearStudy("gtc")
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatWearStudy("gtc", rows))
			return err
		}},
		Exhibit{"sampling", func(s *Session, w io.Writer) error {
			rows, err := s.SamplingStudy("nek5000", []int{1, 16, 64, 256})
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatSamplingStudy("nek5000", rows))
			return err
		}},
		Exhibit{"profilererror", func(s *Session, w io.Writer) error {
			rows, err := s.ProfilerErrorStudy("nek5000", DefaultProfilerErrorSpecs)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatProfilerErrorStudy("nek5000", rows))
			return err
		}},
		Exhibit{"conformance", func(s *Session, w io.Writer) error {
			checks, err := s.Conformance()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, FormatConformance(checks))
			return err
		}},
	)
	return out
}

// ExhibitNames returns the selector names in report order.
func ExhibitNames() []string {
	exs := Exhibits()
	out := make([]string, len(exs))
	for i, ex := range exs {
		out[i] = ex.Name
	}
	return out
}

// knownExhibit reports whether name selects a registered exhibit.
func knownExhibit(name string) bool {
	return slices.Contains(ExhibitNames(), name)
}

// ReportConfig shapes one WriteReport invocation.
type ReportConfig struct {
	// Only restricts the report to the named exhibits; empty means all of
	// them, preceded by a Warm pass that fans every instrumented run out
	// across the worker pool before the (ordered) rendering starts.
	Only []string
	// Now, when non-nil, stamps a "generated <RFC3339>" line under the
	// header.  The report generator itself never reads the real clock —
	// the CLI injects time.Now, the daemon injects its configured clock,
	// and tests inject a fake so report bytes stay deterministic.
	Now func() time.Time
	// Tee, when non-nil, opens a secondary sink per exhibit (the CLI's
	// -outdir); each exhibit's output is written to both.  A close error
	// fails the exhibit unless its generator already failed.
	Tee func(name string) (io.WriteCloser, error)
}

// WriteReport renders the selected exhibits onto w: the header, each
// exhibit in registry order (degraded runs annotated in place when the
// session tolerates failures), and the trailing degraded-runs section.
// Identical sessions produce byte-identical reports — across jobs counts
// and across the CLI and HTTP frontends — except for the optional
// generated-timestamp line.
func (s *Session) WriteReport(w io.Writer, cfg ReportConfig) error {
	want := map[string]bool{}
	for _, name := range cfg.Only {
		if !knownExhibit(name) {
			return fmt.Errorf("unknown exhibit %q", name)
		}
		want[name] = true
	}

	if _, err := fmt.Fprintf(w, "NV-SCAVENGER evaluation reproduction (scale %.2f, %d iterations)\n",
		s.cfg.scale, s.cfg.iterations); err != nil {
		return err
	}
	if cfg.Now != nil {
		if _, err := fmt.Fprintf(w, "generated %s\n\n", cfg.Now().Format(time.RFC3339)); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}

	if len(want) == 0 {
		if err := s.Warm(); err != nil {
			return err
		}
	}

	for _, ex := range Exhibits() {
		if len(want) > 0 && !want[ex.Name] {
			continue
		}
		ew := w
		var tee io.WriteCloser
		if cfg.Tee != nil {
			var err error
			tee, err = cfg.Tee(ex.Name)
			if err != nil {
				return err
			}
			ew = io.MultiWriter(w, tee)
		}
		err := ex.Gen(s, ew)
		if err != nil && s.Degraded() {
			// Chaos/degraded run: an exhibit whose runs were exhausted is
			// annotated in place and the sweep continues.
			_, werr := fmt.Fprintf(ew, "%s: DEGRADED: %v\n\n", ex.Name, err)
			err = werr
		}
		if tee != nil {
			if cerr := tee.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", ex.Name, err)
		}
	}

	if s.Degraded() {
		if runErrs := s.RunErrors(); len(runErrs) > 0 {
			if _, err := fmt.Fprintln(w, "Degraded runs:"); err != nil {
				return err
			}
			for _, re := range runErrs {
				if _, err := fmt.Fprintf(w, "  %-36s %s\n", re.Key, re.Err); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
