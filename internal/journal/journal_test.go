package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/obs"
)

func testPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Journal, Replay) {
	t.Helper()
	j, rep, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j, rep
}

func specRecord(job string) Record {
	spec := experiments.JobSpec{Exhibits: []string{"table1"}, Scale: 0.05, Iterations: 2}
	norm := spec.Normalized()
	return Record{Kind: KindSubmitted, Job: job, Spec: &norm}
}

func doneRecord(job string) Record {
	res := experiments.NewJobResult(experiments.JobSpec{}, experiments.StateDone)
	res.ID = job
	return Record{Kind: experiments.StateDone, Job: job, Result: &res}
}

func TestRoundTrip(t *testing.T) {
	path := testPath(t)
	j, rep := mustOpen(t, path, Options{})
	if len(rep.Records) != 0 || rep.Truncated != 0 || rep.CleanShutdown {
		t.Fatalf("fresh log replay = %+v, want empty", rep)
	}
	recs := []Record{specRecord("job-1"), {Kind: KindStarted, Job: "job-1"}, doneRecord("job-1")}
	if err := j.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rep2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(rep2.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(rep2.Records))
	}
	for i, rec := range rep2.Records {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, rec.Seq, i+1)
		}
	}
	got := rep2.Records[0]
	if got.Kind != KindSubmitted || got.Job != "job-1" || got.Spec == nil {
		t.Fatalf("submitted record = %+v, want kind/job/spec intact", got)
	}
	if got.Spec.Scale != 0.05 || got.Spec.SchemaVersion != experiments.SchemaVersion {
		t.Errorf("spec round-trip = %+v", got.Spec)
	}
	if rep2.Records[2].Result == nil || rep2.Records[2].Result.State != experiments.StateDone {
		t.Errorf("terminal record lost its result: %+v", rep2.Records[2])
	}
	if rep2.Truncated != 0 {
		t.Errorf("Truncated = %d, want 0", rep2.Truncated)
	}
	if rep2.CleanShutdown {
		t.Error("CleanShutdown = true without a drained marker")
	}
}

func TestCleanShutdownMarker(t *testing.T) {
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{})
	if err := j.Append(specRecord("job-1"), Record{Kind: KindDrained}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rep := mustOpen(t, path, Options{})
	if !rep.CleanShutdown {
		t.Fatal("CleanShutdown = false with drained as the last record")
	}
	// Any record after the marker means the next open sees a crash.
	if err := j2.Append(specRecord("job-2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, rep3 := mustOpen(t, path, Options{})
	defer j3.Close()
	if rep3.CleanShutdown {
		t.Fatal("CleanShutdown = true after appending past the drained marker")
	}
}

func TestBatchCommitsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	j, _ := mustOpen(t, testPath(t), Options{Metrics: reg})
	defer j.Close()
	if err := j.Append(specRecord("job-1"), Record{Kind: KindStarted, Job: "job-1"}, doneRecord("job-1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap := reg.Snapshot()
	if got, _ := snap.Counter("served_journal_commits_total"); got != 1 {
		t.Errorf("commits = %d, want 1 (batched fsync)", got)
	}
	if got, _ := snap.Counter("served_journal_appends_total"); got != 3 {
		t.Errorf("appends = %d, want 3", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{})
	if err := j.Append(specRecord("job-1"), specRecord("job-2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_, size := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cases := []struct {
		name   string
		mangle func(t *testing.T)
	}{
		{"garbage tail", func(t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"half a frame header", func(t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x20, 0x00, 0x00}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.mangle(t)
			j2, rep := mustOpen(t, path, Options{})
			if len(rep.Records) != 2 {
				t.Fatalf("replayed %d records, want both committed ones", len(rep.Records))
			}
			if rep.Truncated == 0 {
				t.Fatal("Truncated = 0, want the mangled tail dropped")
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != size {
				t.Fatalf("file is %d bytes after repair, want %d", info.Size(), size)
			}
			if err := j2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestMidFrameTruncationDropsOnlyTail(t *testing.T) {
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{})
	if err := j.Append(specRecord("job-1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_, oneRecord := j.Stats()
	if err := j.Append(specRecord("job-2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_, full := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Chop the second record mid-payload: a crash between write and fsync.
	if err := os.Truncate(path, oneRecord+(full-oneRecord)/2); err != nil {
		t.Fatal(err)
	}
	j2, rep := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(rep.Records) != 1 || rep.Records[0].Job != "job-1" {
		t.Fatalf("replay = %+v, want exactly the first committed record", rep.Records)
	}
	if rep.Truncated == 0 {
		t.Fatal("Truncated = 0, want torn second record dropped")
	}
}

func TestCorruptedPayloadTruncatesFromThere(t *testing.T) {
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{})
	if err := j.Append(specRecord("job-1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_, oneRecord := j.Stats()
	if err := j.Append(specRecord("job-2"), specRecord("job-3")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one payload byte in the second record: CRC must reject it and
	// everything after it, leaving the committed prefix.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, oneRecord+headerSize+4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rep := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(rep.Records) != 1 || rep.Records[0].Job != "job-1" {
		t.Fatalf("replay = %+v, want just the intact prefix", rep.Records)
	}
	if rep.Truncated == 0 {
		t.Fatal("Truncated = 0, want corrupt frame and successors dropped")
	}
}

func TestShortWriteRepairedByRetry(t *testing.T) {
	reg := obs.NewRegistry()
	spec := faults.MustParse("writer:every=3,mode=short,seed=7")
	wrap := func(w io.Writer) io.Writer { return faults.Writer(spec, w) }
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{Metrics: reg, Wrap: wrap, Attempts: 3})
	for i := 0; i < 9; i++ {
		if err := j.Append(specRecord("job-1")); err != nil {
			t.Fatalf("Append %d: %v (short writes must be repaired)", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, _ := reg.Snapshot().Counter("served_journal_commit_retries_total"); got == 0 {
		t.Fatal("retries = 0: the every=3 short-write fault never tripped")
	}
	_, rep := mustOpen(t, path, Options{})
	if len(rep.Records) != 9 {
		t.Fatalf("replayed %d records, want all 9 despite short writes", len(rep.Records))
	}
	if rep.Truncated != 0 {
		t.Fatalf("Truncated = %d, want 0: failed attempts must rewind before retrying", rep.Truncated)
	}
}

func TestTornWriteDetectedBySizeCheck(t *testing.T) {
	reg := obs.NewRegistry()
	spec := faults.MustParse("writer:every=2,mode=torn,seed=7")
	wrap := func(w io.Writer) io.Writer { return faults.Writer(spec, w) }
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{Metrics: reg, Wrap: wrap, Attempts: 3})
	for i := 0; i < 6; i++ {
		if err := j.Append(specRecord("job-1")); err != nil {
			t.Fatalf("Append %d: %v (torn writes must be caught and repaired)", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, _ := reg.Snapshot().Counter("served_journal_commit_retries_total"); got == 0 {
		t.Fatal("retries = 0: the size check never caught the torn write")
	}
	_, rep := mustOpen(t, path, Options{})
	if len(rep.Records) != 6 || rep.Truncated != 0 {
		t.Fatalf("replay = %d records, %d truncated; want 6 and 0", len(rep.Records), rep.Truncated)
	}
}

func TestRetryExhaustionSurfacesError(t *testing.T) {
	spec := faults.MustParse("writer:every=1,mode=short") // every write fails
	wrap := func(w io.Writer) io.Writer { return faults.Writer(spec, w) }
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{Wrap: wrap, Attempts: 2})
	err := j.Append(specRecord("job-1"))
	if err == nil {
		t.Fatal("Append succeeded with every write failing")
	}
	if !errors.Is(err, faults.ErrNoSpace) {
		t.Fatalf("error = %v, want the injected ErrNoSpace surfaced", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Nothing durable: the rewinds must have left an empty, valid log.
	_, rep := mustOpen(t, path, Options{})
	if len(rep.Records) != 0 || rep.Truncated != 0 {
		t.Fatalf("replay = %d records, %d truncated; want a clean empty log", len(rep.Records), rep.Truncated)
	}
}

func TestCrashPointKillsJournal(t *testing.T) {
	plan := faults.NewCrashPlan(2)
	j, _ := mustOpen(t, testPath(t), Options{Crash: plan.Crashed})
	defer j.Close()
	if err := j.Append(specRecord("job-1")); err != nil {
		t.Fatalf("Append before crash point: %v", err)
	}
	if err := j.Append(specRecord("job-2")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Append at crash point = %v, want ErrCrashed", err)
	}
	// Sticky: the dead journal never writes again.
	if err := j.Append(specRecord("job-3")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Append after crash = %v, want sticky ErrCrashed", err)
	}
	if err := j.Compact(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact after crash = %v, want sticky ErrCrashed", err)
	}
	if err := j.Err(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Err() = %v, want ErrCrashed", err)
	}
}

func TestCompactRewritesLiveSet(t *testing.T) {
	reg := obs.NewRegistry()
	path := testPath(t)
	j, _ := mustOpen(t, path, Options{Metrics: reg})
	for i := 0; i < 30; i++ {
		if err := j.Append(specRecord("job-1"), doneRecord("job-1")); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	_, before := j.Stats()
	live := []Record{specRecord("job-9"), doneRecord("job-9")}
	if err := j.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	records, after := j.Stats()
	if records != 2 {
		t.Fatalf("records after compact = %d, want 2", records)
	}
	if after >= before {
		t.Fatalf("size after compact = %d, want < %d", after, before)
	}
	// The journal keeps working post-rotation on the new file handle.
	if err := j.Append(specRecord("job-10")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rep := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(rep.Records) != 3 {
		t.Fatalf("replayed %d records, want 3 (2 live + 1 appended)", len(rep.Records))
	}
	wantSeq := []uint64{1, 2, 3}
	for i, rec := range rep.Records {
		if rec.Seq != wantSeq[i] {
			t.Errorf("record %d seq = %d, want %d (compaction restamps from 1)", i, rec.Seq, wantSeq[i])
		}
	}
	if rep.Records[2].Job != "job-10" {
		t.Errorf("post-compaction append lost: %+v", rep.Records[2])
	}
	if got, _ := reg.Snapshot().Counter("served_journal_compactions_total"); got != 1 {
		t.Errorf("compactions = %d, want 1", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("compaction temp file left behind: stat err = %v", err)
	}
}

func TestWrapSurvivesCompaction(t *testing.T) {
	// The injector's decision stream must keep counting across the
	// rotation, proving Wrap decorates an indirection, not the raw file.
	var calls int
	wrap := func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			calls++
			return w.Write(p)
		})
	}
	j, _ := mustOpen(t, testPath(t), Options{Wrap: wrap})
	defer j.Close()
	if err := j.Append(specRecord("job-1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Compact([]Record{specRecord("job-1")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j.Append(specRecord("job-2")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	if calls != 2 {
		t.Fatalf("wrapped writer saw %d calls, want 2 (both appends, same decorator)", calls)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestClosedJournalRejectsAppends(t *testing.T) {
	j, _ := mustOpen(t, testPath(t), Options{})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Append(specRecord("job-1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err() after deliberate Close = %v, want nil", err)
	}
}
