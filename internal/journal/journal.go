// Package journal is the crash-safe write-ahead log behind the nvserved
// job manager: an append-only file of job lifecycle records (submitted,
// started, done/failed/cancelled, drained) carrying the versioned
// experiments.JobSpec/JobResult wire forms, so a restarted daemon can
// replay exactly what it had acknowledged before it died.
//
// The paper's §I resiliency argument is that exascale machines need
// cheap durable checkpoint/restart; this package applies the same
// discipline to the experiments service itself.  The design follows the
// classic WAL recipe:
//
//   - Framing: each record is length-prefixed and CRC-checksummed
//     ([4-byte LE payload length][4-byte LE CRC32-C][JSON payload]), so
//     recovery can tell a committed record from the debris of a crash.
//   - Commit: Append frames a whole batch, writes it with one write and
//     one fsync (fsync-on-commit batching), then verifies the on-disk
//     size — a torn write that lied about its length is caught at the
//     next commit, not at the next crash.
//   - Recovery: Open scans the file from the start and truncates the
//     tail at the first bad frame (short header, short payload, CRC
//     mismatch, undecodable JSON).  Committed records are never lost;
//     an uncommitted tail is dropped, which is exactly the contract the
//     manager's idempotent re-execution expects.
//   - Repair: a failed commit (short write, ErrNoSpace, torn write)
//     truncates back to the last durable offset and rewrites, up to a
//     bounded number of attempts — transient disk faults never corrupt
//     the log, persistent ones surface as errors.
//   - Compaction: once the live set is a small fraction of the file,
//     Compact rewrites it as a snapshot into a temp file and rotates it
//     over the log with an atomic rename plus directory fsync.
//
// Nothing here reads a wall clock or random state: record sequence
// numbers are assigned by append order, so the log is a pure function
// of the manager's transition sequence.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/obs"
)

// Record kinds beyond the terminal experiments.State* values (which are
// used verbatim as kinds for terminal records).
const (
	// KindSubmitted records an accepted job and carries its spec.  A
	// submission is acknowledged to the client only after this record is
	// durable.
	KindSubmitted = "submitted"
	// KindStarted records a job moving to the running state.
	KindStarted = "started"
	// KindDrained is the clean-shutdown marker Drain appends last; its
	// absence at the log tail tells recovery a crash happened.
	KindDrained = "drained"
)

// Record is one journaled lifecycle transition.  Spec rides on
// submitted records, Result on terminal ones; both are the versioned
// wire forms of internal/experiments, so old logs replay under the same
// cross-version decoding contract as the HTTP API.
type Record struct {
	Seq    uint64                 `json:"seq"`
	Kind   string                 `json:"kind"`
	Job    string                 `json:"job,omitempty"`
	Spec   *experiments.JobSpec   `json:"spec,omitempty"`
	Result *experiments.JobResult `json:"result,omitempty"`
}

// Frame layout and bounds.
const (
	headerSize = 8
	// maxRecord bounds a frame's claimed payload length; a header
	// claiming more is corruption, not a record.
	maxRecord = 64 << 20
	// defaultAttempts is the commit attempt bound when Options.Attempts
	// is unset: the first try plus two repairs.
	defaultAttempts = 3
)

// crcTable is the Castagnoli polynomial, the standard choice for
// storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal errors.
var (
	// ErrClosed reports an append or compaction after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrCrashed reports that the crash-point injector fired: the
	// journal is dead and nothing more reaches the disk (tests).
	ErrCrashed = errors.New("journal: crashed (crash-point injection)")
)

// Options configures Open.
type Options struct {
	// Attempts bounds the commit tries, the first included, after a
	// transient append failure (short write, disk full, torn write): the
	// journal truncates back to the last durable offset and rewrites the
	// batch.  Values below 1 select 3 attempts.
	Attempts int
	// Metrics is the registry the served_journal_* series publish into;
	// nil gets a private registry.
	Metrics *obs.Registry
	// Wrap decorates the writer in front of the log file — the
	// disk-fault injection hook (faults.Writer with mode=short/torn).
	// Nil writes straight through.  The decorator survives compaction:
	// it wraps an indirection over the current file, not the file
	// itself, so a seeded injector's decision stream keeps counting.
	Wrap func(io.Writer) io.Writer
	// Crash, when non-nil, is consulted once per commit and once per
	// compaction: the first true kills the journal — that operation and
	// every later one fail with ErrCrashed and nothing more reaches the
	// disk, modelling a process kill at that journaled transition.
	Crash func() bool
}

// Replay is what Open recovered from an existing log.
type Replay struct {
	// Records are the committed records in append order.
	Records []Record
	// Truncated is how many torn-tail bytes were dropped on open.
	Truncated int64
	// CleanShutdown reports whether the log ends with the drained
	// marker — the previous process stopped gracefully.
	CleanShutdown bool
}

// Journal is an open write-ahead log.  All methods are safe for
// concurrent use; each commit holds the journal for its write+fsync.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    io.Writer // opts.Wrap over the current file
	opts Options

	good    int64 // durable byte offset: everything below survived an fsync
	seq     uint64
	records int   // committed records in the file (live and superseded)
	err     error // sticky: a dead journal never writes again

	appends     *obs.Counter
	commits     *obs.Counter
	retries     *obs.Counter
	compactions *obs.Counter
	bytes       *obs.Gauge
}

// fileWriter indirects writes through the journal's current file so
// Options.Wrap decorators keep their state across compaction rotations.
type fileWriter struct{ j *Journal }

func (fw fileWriter) Write(p []byte) (int, error) { return fw.j.f.Write(p) }

// Open opens (creating if absent) the log at path, replays its
// committed records and truncates any torn tail.  The returned Replay
// is the recovery input for the caller's state machine.
func Open(path string, opts Options) (*Journal, Replay, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, Replay{}, closeOnErr(f, fmt.Errorf("journal: reading %s: %w", path, err))
	}
	recs, good := scan(data)
	truncated := int64(len(data)) - good
	if truncated > 0 {
		// Torn tail: drop the uncommitted debris so the next append
		// starts on a frame boundary.
		if err := f.Truncate(good); err != nil {
			return nil, Replay{}, closeOnErr(f, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err))
		}
		if err := f.Sync(); err != nil {
			return nil, Replay{}, closeOnErr(f, fmt.Errorf("journal: syncing truncated %s: %w", path, err))
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, Replay{}, closeOnErr(f, fmt.Errorf("journal: seeking to log end: %w", err))
	}

	j := &Journal{
		path:        path,
		f:           f,
		opts:        opts,
		good:        good,
		records:     len(recs),
		appends:     reg.Counter("served_journal_appends_total"),
		commits:     reg.Counter("served_journal_commits_total"),
		retries:     reg.Counter("served_journal_commit_retries_total"),
		compactions: reg.Counter("served_journal_compactions_total"),
		bytes:       reg.Gauge("served_journal_bytes"),
	}
	j.w = fileWriter{j}
	if opts.Wrap != nil {
		j.w = opts.Wrap(fileWriter{j})
	}
	for _, rec := range recs {
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
	}
	j.bytes.Set(float64(good))
	reg.Counter("served_journal_replayed_total").Add(uint64(len(recs)))
	reg.Counter("served_journal_truncated_bytes_total").Add(uint64(truncated))
	replay := Replay{
		Records:       recs,
		Truncated:     truncated,
		CleanShutdown: len(recs) > 0 && recs[len(recs)-1].Kind == KindDrained,
	}
	return j, replay, nil
}

// closeOnErr closes f on an Open failure path, joining a close error
// onto the primary one.
func closeOnErr(f *os.File, err error) error {
	if cerr := f.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// scan walks the frames in data and returns the decoded records plus
// the offset of the first bad frame — the durable prefix boundary.
func scan(data []byte) (recs []Record, good int64) {
	off := 0
	for off+headerSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if length == 0 || length > maxRecord {
			break
		}
		if off+headerSize+length > len(data) {
			break // torn payload
		}
		payload := data[off+headerSize : off+headerSize+length]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += headerSize + length
	}
	return recs, int64(off)
}

// appendFrame encodes one record into buf in the on-disk framing.
func appendFrame(buf *bytes.Buffer, rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record seq %d: %w", rec.Seq, err)
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record seq %d is %d bytes, over the %d-byte frame bound", rec.Seq, len(payload), maxRecord)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf.Write(hdr[:])
	buf.Write(payload)
	return nil
}

// Append assigns sequence numbers to recs, frames them and commits the
// whole batch with one write and one fsync.  It returns only once the
// batch is durable (the WAL ack discipline) or the bounded retry is
// exhausted.  A batch that fails leaves the log exactly as it was:
// every attempt first truncates back to the last durable offset.
func (j *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.opts.Crash != nil && j.opts.Crash() {
		j.err = ErrCrashed
		return j.err
	}
	var buf bytes.Buffer
	for i := range recs {
		j.seq++
		recs[i].Seq = j.seq
		if err := appendFrame(&buf, recs[i]); err != nil {
			return err
		}
	}
	if err := j.commit(buf.Bytes()); err != nil {
		return err
	}
	j.records += len(recs)
	j.appends.Add(uint64(len(recs)))
	return nil
}

// commit makes the framed batch durable, repairing and retrying
// transient failures up to the attempt bound.  Callers hold j.mu.
func (j *Journal) commit(p []byte) error {
	n := j.opts.Attempts
	if n < 1 {
		n = defaultAttempts
	}
	var err error
	for i := 0; ; i++ {
		err = j.tryCommit(p)
		if err == nil {
			j.commits.Inc()
			j.bytes.Set(float64(j.good))
			return nil
		}
		if j.err != nil || i+1 >= n {
			// Sticky failures (a rewind that itself failed) are not
			// transient; don't burn attempts on them.
			break
		}
		j.retries.Inc()
	}
	// Leave the file ending at the durable offset: the failed batch's
	// partial frame must not survive as a torn tail.
	if j.err == nil {
		if rerr := j.rewind(); rerr != nil {
			j.err = fmt.Errorf("journal: rewinding after failed append: %w", rerr)
			err = errors.Join(err, rerr)
		}
	}
	return fmt.Errorf("journal: append not durable after %d attempts: %w", n, err)
}

// tryCommit is one durable-append attempt: rewind to the last durable
// offset (a previous attempt may have left a partial frame), write the
// batch, fsync, then verify the on-disk size — a writer that silently
// dropped bytes (torn write) leaves the file short and the attempt
// counts as failed.
func (j *Journal) tryCommit(p []byte) error {
	if err := j.rewind(); err != nil {
		j.err = fmt.Errorf("journal: rewinding to durable offset %d: %w", j.good, err)
		return j.err
	}
	if _, err := j.w.Write(p); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	info, err := j.f.Stat()
	if err != nil {
		return err
	}
	if want := j.good + int64(len(p)); info.Size() != want {
		return fmt.Errorf("journal: torn write: file is %d bytes after sync, want %d", info.Size(), want)
	}
	j.good += int64(len(p))
	return nil
}

// rewind drops everything past the durable offset.  Callers hold j.mu.
func (j *Journal) rewind() error {
	if err := j.f.Truncate(j.good); err != nil {
		return err
	}
	_, err := j.f.Seek(j.good, io.SeekStart)
	return err
}

// Compact rewrites the log as the given snapshot — the minimal record
// sequence that replays to the caller's current state — into a temp
// file, rotates it over the log with an atomic rename and a directory
// fsync, and restamps sequence numbers from 1.  The old log stays
// intact until the rename, so a crash mid-compaction loses nothing.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.opts.Crash != nil && j.opts.Crash() {
		j.err = ErrCrashed
		return j.err
	}
	var buf bytes.Buffer
	seq := uint64(0)
	for i := range live {
		seq++
		live[i].Seq = seq
		if err := appendFrame(&buf, live[i]); err != nil {
			return err
		}
	}
	tmp := j.path + ".tmp"
	if err := writeSnapshot(tmp, buf.Bytes()); err != nil {
		return fmt.Errorf("journal: writing compaction snapshot: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("journal: rotating compacted log: %w", err)
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: syncing log directory: %w", err)
	}
	// The path now names the snapshot; the old handle points at the
	// unlinked inode.  Swap handles — failing here is fatal for the
	// journal (writes through the old handle would vanish).
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		j.err = fmt.Errorf("journal: reopening rotated log: %w", err)
		return j.err
	}
	if _, err := f.Seek(int64(buf.Len()), io.SeekStart); err != nil {
		j.err = errors.Join(fmt.Errorf("journal: seeking rotated log: %w", err), f.Close())
		return j.err
	}
	old := j.f
	j.f = f
	j.good = int64(buf.Len())
	j.seq = seq
	j.records = len(live)
	j.compactions.Inc()
	j.bytes.Set(float64(j.good))
	if err := old.Close(); err != nil {
		return fmt.Errorf("journal: closing rotated-out log: %w", err)
	}
	return nil
}

// writeSnapshot writes p to a fresh file at tmp and fsyncs it; the
// write error wins over a close error.
func writeSnapshot(tmp string, p []byte) (err error) {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(p); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Stats returns the committed record count and the durable size of the
// log — the compaction policy's inputs.
func (j *Journal) Stats() (records int, size int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.good
}

// Err returns the sticky error, nil while the journal is healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if errors.Is(j.err, ErrClosed) {
		return nil // a deliberate close is not a failure
	}
	return j.err
}

// Close closes the log file; later operations fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if j.err == nil {
		j.err = ErrClosed
	}
	return err
}
