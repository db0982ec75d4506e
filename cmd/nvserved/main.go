// Command nvserved is the experiments-as-a-service daemon: a long-running
// HTTP/JSON frontend (internal/served) over the experiment session, the
// shared single-flight run cache and the obs registry.  Clients submit
// versioned experiment specs (experiments.JobSpec) to the jobs API, follow
// per-run progress as an NDJSON event stream, and fetch reports that are
// byte-identical to the nvreport CLI's output for the same spec.
//
// Usage:
//
//	nvserved                        # listen on :8337
//	nvserved -addr 127.0.0.1:9000   # explicit listen address
//	nvserved -queue 64 -workers 4   # deeper queue, more concurrent jobs
//	nvserved -state-dir /var/lib/nvserved   # crash-safe job journal
//	nvserved -fault writer:every=100,seed=7   # chaos on the serving path
//
// A typical session:
//
//	curl -d '{"exhibits":["table5"],"scale":0.25}' localhost:8337/jobs
//	curl localhost:8337/jobs/job-1/events        # stream progress
//	curl localhost:8337/jobs/job-1/report        # fetch the report
//	curl localhost:8337/metrics                  # observability snapshot
//
// On SIGINT/SIGTERM the daemon drains: intake stops (503), in-flight jobs
// finish until -drain-timeout, stragglers are cancelled, and the final
// metrics snapshot is flushed (-metrics) before exit.
//
// Intake rejects a submission only when the queue is full (429) or while
// draining (503).  A failed job is reported in its own result and never
// turns later submissions away: runs are deterministic, so a job fails
// only on what its own spec triggers.
//
// With -state-dir the daemon is crash-safe: every job transition is
// committed to a write-ahead journal (<state-dir>/journal.wal) before it
// is acknowledged, and a restart replays the log — finished jobs come
// back with their reports, queued and mid-run jobs are re-enqueued and
// re-run deterministically.  Startup prints a recovery summary, and
// /healthz reports it (recovered=true after a crash restart).
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvscavenger/internal/cli"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/served"
)

func main() { cli.Main("nvserved", run) }

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvserved")
	addr := fs.String("addr", ":8337", "listen address")
	queue := fs.Int("queue", 16, "job queue capacity (full queue rejects with 429)")
	workers := fs.Int("workers", 2, "concurrently running jobs")
	jobs := fs.Int("jobs", 0, "per-job run worker pool bound when the spec leaves it unset (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown drain waits before cancelling in-flight jobs")
	metricsOut := fs.String("metrics", "", "flush the final observability snapshot to this file on shutdown (.json for JSON, text otherwise)")
	stateDir := fs.String("state-dir", "", "directory for the crash-safe job journal; empty keeps jobs in memory only")
	faultSpec := fs.String("fault", "", "chaos on the serving path: writer-target fault spec, e.g. writer:every=100,seed=7")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := served.Config{Queue: *queue, Workers: *workers, Jobs: *jobs, StateDir: *stateDir}
	if *faultSpec != "" {
		spec, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		cfg.Fault = spec
	}
	m, _, err := served.Open(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, m, *drainTimeout, *metricsOut, out)
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that trickles them in cannot hold a server
// goroutine forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the daemon's HTTP server over m.
func newHTTPServer(m *served.Manager) *http.Server {
	return &http.Server{Handler: served.NewServer(m), ReadHeaderTimeout: readHeaderTimeout}
}

// serve runs the HTTP frontend on ln until ctx is cancelled (the signal
// handler), then drains: stop intake, finish or cancel in-flight jobs
// within drainTimeout, shut the listener down and flush metrics.
func serve(ctx context.Context, ln net.Listener, m *served.Manager, drainTimeout time.Duration, metricsOut string, out io.Writer) error {
	srv := newHTTPServer(m)
	fmt.Fprintf(out, "nvserved: listening on %s\n", ln.Addr())
	if rec, ok := m.RecoveryInfo(); ok {
		fmt.Fprintf(out, "nvserved: journal: %d records replayed, %d jobs restored, %d requeued (%d mid-run), %d torn bytes truncated",
			rec.Records, rec.Restored, rec.Requeued, rec.Rerun, rec.TruncatedBytes)
		if rec.Recovered {
			fmt.Fprint(out, " — recovered from unclean shutdown")
		}
		fmt.Fprintln(out)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own; nothing to drain into.
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "nvserved: shutdown signal, draining (timeout %s)\n", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := m.Drain(dctx)
	if drainErr != nil {
		fmt.Fprintf(out, "nvserved: drain cancelled in-flight jobs: %v\n", drainErr)
	}
	shutdownErr := srv.Shutdown(dctx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if metricsOut != "" {
		if err := cli.WriteMetricsFile(metricsOut, m.Registry().Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "nvserved: wrote metrics snapshot to %s\n", metricsOut)
	}

	done, failed, cancelled := 0, 0, 0
	for _, job := range m.Jobs() {
		switch job.State() {
		case "done":
			done++
		case "failed":
			failed++
		case "cancelled":
			cancelled++
		}
	}
	fmt.Fprintf(out, "nvserved: drained: %d jobs (%d done, %d failed, %d cancelled)\n",
		len(m.Jobs()), done, failed, cancelled)
	return shutdownErr
}
