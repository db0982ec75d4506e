// Package cli carries the scaffolding every cmd/* tool shares: the
// main-function exit protocol, flag-set construction, app-name validation
// against the registered mini-applications, JSON snapshot writing, and
// tabwriter-based report tables.  The five front ends (nvscavenger,
// nvreport, nvpower, nvperf, nvtrace) are thin run(args, out) functions on
// top of it, which keeps them unit-testable: tests call run directly with
// a bytes.Buffer and never touch os.Exit.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/obs"
)

// Main runs a tool's run function with the standard exit protocol: errors
// go to stderr prefixed with the tool name, and the process exits 1.
func Main(name string, run func(args []string, out io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// NewFlagSet returns the tools' standard flag set: ContinueOnError, so a
// bad flag surfaces as an error from run instead of killing the process.
func NewFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// AppList names the registered applications, comma separated, for flag
// usage strings and error messages.
func AppList() string {
	return strings.Join(apps.Names(), ", ")
}

// ValidateApp checks that name is a registered application.
func ValidateApp(name string) error {
	for _, n := range apps.Names() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown app %q (have %s)", name, AppList())
}

// RequireApp validates the -app flag value: empty prints the flag set's
// usage and reports which apps exist; unknown names are rejected before
// any work starts.
func RequireApp(fs *flag.FlagSet, name string) error {
	if name == "" {
		fs.Usage()
		return fmt.Errorf("missing -app (one of %s)", AppList())
	}
	return ValidateApp(name)
}

// CheckRunSize applies the shared bounds of apps.CheckScale and
// apps.CheckIterations to the -scale and -iterations flags, so a tool
// refuses the same sizes the jobs API refuses.
func CheckRunSize(scale float64, iterations int) error {
	if err := apps.CheckScale(scale); err != nil {
		return err
	}
	return apps.CheckIterations(iterations)
}

// WriteJSONFile creates path and hands the file to write (typically a
// snapshot's WriteJSON), closing it on every path; used by the tools'
// -json flags.  The write error takes precedence over the close error —
// a failed write usually makes the close fail too, and the first cause is
// the one worth reporting.
func WriteJSONFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// EncodeJSON writes v to w in the tools' standard JSON rendering:
// two-space indentation and a trailing newline, the same bytes for the
// same value on every frontend.  Both the nvserved HTTP responses and the
// CLI -json files route through it, so the versioned job/result payloads
// (experiments.JobSpec, experiments.JobResult) are byte-identical across
// transports.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding JSON: %w", err)
	}
	return nil
}

// EncodeCompactJSON writes v as a single JSON line with a trailing
// newline — the NDJSON record format of the nvserved event stream.
func EncodeCompactJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding JSON: %w", err)
	}
	return nil
}

// WriteValueJSONFile writes v to path via EncodeJSON; the -json flag
// implementation for tools whose payload is a plain value rather than a
// streaming writer.
func WriteValueJSONFile(path string, v any) error {
	return WriteJSONFile(path, func(w io.Writer) error { return EncodeJSON(w, v) })
}

// WriteMetricsFile writes an observability snapshot to path: the JSON
// rendering when the path ends in .json, the one-line-per-series text
// rendering otherwise.  All five tools' -metrics flags route through it.
func WriteMetricsFile(path string, snap obs.Snapshot) error {
	write := snap.WriteText
	if strings.HasSuffix(path, ".json") {
		write = snap.WriteJSON
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Table renders aligned report columns through a tabwriter.  Rows are
// buffered until Flush.
type Table struct {
	tw *tabwriter.Writer
}

// NewTable returns a Table writing to out with the report tools' standard
// geometry (two-space padding, left-aligned cells).
func NewTable(out io.Writer) *Table {
	return &Table{tw: tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)}
}

// Row writes one row; cells are tab-separated by the writer.
func (t *Table) Row(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

// Rowf writes one row from format verbs, one cell per argument after
// splitting on tabs in the expansion.
func (t *Table) Rowf(format string, args ...any) {
	fmt.Fprintf(t.tw, format+"\n", args...)
}

// Flush renders the buffered rows with final column widths.
func (t *Table) Flush() error { return t.tw.Flush() }
