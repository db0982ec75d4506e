package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync/atomic"
	"time"

	"nvscavenger/internal/experiments"
)

// reportWorkload renders one full report (all exhibits, after Warm) on a
// fresh Session per unit, with the worker pool at GOMAXPROCS.  It reads
// Scale and Iterations; the seed is unused.  This is what an nvreport user
// waits for; it touches every layer and cross-app parallelism fills the
// cores.
type reportWorkload struct {
	pins *pins
	errw io.Writer
}

// heavyExhibits get their own per-layer span metric; every other exhibit
// is summed into experiments.exhibit_s.rest.
var heavyExhibits = []string{"fig12", "sampling", "profilererror"}

func (w *reportWorkload) unit(p params, check bool, sp *spans) unitResult {
	var u unitResult
	trace := sp.newTrace()
	root := sp.begin("report", 0, trace)
	var phase atomic.Int64
	phase.Store(root)
	probe := newRunnerProbe(sp, trace, phase.Load)

	start := time.Now()
	s := experiments.NewSession(
		experiments.WithScale(p.Scale),
		experiments.WithIterations(p.Iterations),
		experiments.WithProgress(probe.event),
	)
	var buf bytes.Buffer
	cfg := experiments.ReportConfig{}
	exhibits := map[string]time.Duration{}
	var warm time.Duration
	if sp != nil {
		// Warm on its own so its span is exact; WriteReport's own Warm then
		// finds every run cached.  Tee hands out one sink per exhibit, opened
		// right before the exhibit renders and closed right after.
		id := sp.begin("experiments.Warm", root, trace)
		phase.Store(id)
		err := s.Warm()
		sp.end(id)
		warm = sp.duration(id)
		if err != nil {
			u.attempted++
			u.fail(w.errw, "report: warm: %v", err)
			return u
		}
		cfg.Tee = func(name string) (io.WriteCloser, error) {
			id := sp.begin("experiments."+name, root, trace)
			phase.Store(id)
			return exhibitSpan{func() {
				sp.end(id)
				phase.Store(root)
				exhibits[name] = sp.duration(id)
			}}, nil
		}
	}
	err := s.WriteReport(&buf, cfg)
	u.wall = time.Since(start)
	sp.end(root)
	u.requests = []time.Duration{u.wall}
	u.refs, _, _, _ = probe.totals()
	u.refsWall = u.wall

	u.attempted++
	switch {
	case err != nil:
		u.fail(w.errw, "report: %v", err)
	case check && digest(buf.Bytes()) != w.pins.Report.SHA256:
		u.fail(w.errw, "report: digest %s, pinned %s", digest(buf.Bytes()), w.pins.Report.SHA256)
	}
	if sp != nil {
		_, started, cached, busy := probe.totals()
		addRunnerLayer(&u, started, cached, busy, u.wall)
		u.addLayer("experiments.warm_s", warm.Seconds())
		var rest time.Duration
		for name, d := range exhibits {
			rest += d
			for _, h := range heavyExhibits {
				if name == h {
					u.addLayer("experiments.exhibit_s."+h, d.Seconds())
					rest -= d
				}
			}
		}
		u.addLayer("experiments.exhibit_s.rest", rest.Seconds())
	}
	return u
}

// exhibitSpan is the per-exhibit Tee sink: it discards the exhibit's bytes
// (the report buffer already receives them) and ends the span on Close.
type exhibitSpan struct{ done func() }

func (exhibitSpan) Write(p []byte) (int, error) { return len(p), nil }
func (e exhibitSpan) Close() error              { e.done(); return nil }

// addRunnerLayer records the run engine's per-unit figures: busy time
// summed over executed runs, that time over the unit's wall on every core,
// and cache hits over run requests.
func addRunnerLayer(u *unitResult, started, cached int, busy, wall time.Duration) {
	u.addLayer("runner.busy_s", busy.Seconds())
	u.addLayer("runner.parallel_eff", busy.Seconds()/(wall.Seconds()*float64(gomaxprocs())))
	if started+cached > 0 {
		u.addLayer("runner.hit_ratio", float64(cached)/float64(started+cached))
	}
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderReport renders the report a Session built from opts produces for
// the given exhibit selection, without a generated-timestamp line.
func renderReport(only []string, opts ...experiments.Option) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.NewSession(opts...).WriteReport(&buf, experiments.ReportConfig{Only: only})
	return buf.Bytes(), err
}
