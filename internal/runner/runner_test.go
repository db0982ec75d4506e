package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvscavenger/internal/obs"
)

func key(app string) Key {
	return Key{App: app, Mode: "fast", Scale: 1, Iterations: 10}
}

func TestDoMemoizes(t *testing.T) {
	e := New(Config{Jobs: 2})
	var execs atomic.Int64
	fn := func(ctx context.Context) (any, uint64, error) {
		execs.Add(1)
		return 42, 7, nil
	}
	for i := 0; i < 3; i++ {
		v, err := e.Do(context.Background(), key("gtc"), fn)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 42 {
			t.Fatalf("value = %v", v)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	m := e.Metrics()
	if m.Misses != 1 || m.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", m.Hits, m.Misses)
	}
	if len(m.Runs) != 1 || m.Runs[0].Refs != 7 {
		t.Fatalf("run records = %+v", m.Runs)
	}
}

func TestDoSingleFlight(t *testing.T) {
	e := New(Config{Jobs: 8})
	var execs atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, uint64, error) {
		execs.Add(1)
		<-release
		return "shared", 1, nil
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Do(context.Background(), key("cam"), fn)
		}(i)
	}
	// Let every caller reach the cache before releasing the one execution.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (single-flight)", got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].(string) != "shared" {
			t.Fatalf("caller %d got %v", i, results[i])
		}
	}
}

func TestDoBoundsWorkers(t *testing.T) {
	e := New(Config{Jobs: 2})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Do(context.Background(), key(fmt.Sprintf("app%d", i)),
				func(ctx context.Context) (any, uint64, error) {
					n := inFlight.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					time.Sleep(5 * time.Millisecond)
					inFlight.Add(-1)
					return i, 0, nil
				})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency = %d, want <= 2", p)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	e := New(Config{Jobs: 1})
	boom := errors.New("boom")
	calls := 0
	fn := func(ctx context.Context) (any, uint64, error) {
		calls++
		if calls == 1 {
			return nil, 0, boom
		}
		return "ok", 1, nil
	}
	if _, err := e.Do(context.Background(), key("s3d"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := e.Do(context.Background(), key("s3d"), fn)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if v.(string) != "ok" {
		t.Fatalf("v = %v", v)
	}
	if m := e.Metrics(); m.Errors != 1 {
		t.Fatalf("errors = %d, want 1", m.Errors)
	}
}

func TestDoContextCancelledBeforeStart(t *testing.T) {
	e := New(Config{Jobs: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Do(ctx, key("gtc"), func(ctx context.Context) (any, uint64, error) {
		t.Error("fn must not run on a cancelled context")
		return nil, 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDoContextCancelledWhileQueued(t *testing.T) {
	e := New(Config{Jobs: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	go e.Do(context.Background(), key("hog"), func(ctx context.Context) (any, uint64, error) {
		close(started)
		<-block
		return nil, 0, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, key("queued"), func(ctx context.Context) (any, uint64, error) {
			return nil, 0, nil
		})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued Do did not honor cancellation")
	}
	close(block)
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	kinds := map[EventKind]int{}
	e := New(Config{Jobs: 1, Progress: func(ev Event) {
		mu.Lock()
		kinds[ev.Kind]++
		mu.Unlock()
	}})
	fn := func(ctx context.Context) (any, uint64, error) { return 1, 2, nil }
	if _, err := e.Do(context.Background(), key("gtc"), fn); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), key("gtc"), fn); err != nil {
		t.Fatal(err)
	}
	if kinds[EventStart] != 1 || kinds[EventDone] != 1 || kinds[EventCached] != 1 {
		t.Fatalf("events = %v", kinds)
	}
}

func TestCollectOrderAndError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	out, errs := Collect(context.Background(), items, func(ctx context.Context, i int) (int, error) {
		time.Sleep(time.Duration(7-i) * time.Millisecond) // finish out of order
		if i == 3 {
			return 0, boom
		}
		return i * i, nil
	})
	for i := range items {
		want, wantErr := i*i, error(nil)
		if i == 3 {
			want, wantErr = 0, boom
		}
		if out[i] != want || errs[i] != wantErr {
			t.Fatalf("item %d = (%d, %v), want (%d, %v)", i, out[i], errs[i], want, wantErr)
		}
	}
}

func TestMetricsWallSummary(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 3; i++ {
		_, err := e.Do(context.Background(), key(fmt.Sprintf("a%d", i)),
			func(ctx context.Context) (any, uint64, error) { return i, 10, nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.TotalRefs() != 30 {
		t.Fatalf("total refs = %d", m.TotalRefs())
	}
	sum := m.WallSummary()
	if sum.Count() != 3 || sum.Total() < 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestJoinedFailureNotCached locks in the accounting fix: a waiter that
// joins an in-flight execution which subsequently fails must receive the
// error, must not be counted as a cache hit, and must not see an
// EventCached — it is a joined failure, counted distinctly.
func TestJoinedFailureNotCached(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	kinds := map[EventKind]int{}
	e := New(Config{Jobs: 2, Progress: func(ev Event) {
		mu.Lock()
		kinds[ev.Kind]++
		mu.Unlock()
	}})

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Do(context.Background(), key("cam"), func(ctx context.Context) (any, uint64, error) {
			close(started)
			<-release
			return nil, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("executor err = %v, want boom", err)
		}
	}()
	<-started

	// Join the in-flight execution, then let it fail.
	joined := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), key("cam"), func(ctx context.Context) (any, uint64, error) {
			t.Error("joiner must not execute")
			return nil, 0, nil
		})
		joined <- err
	}()
	// Give the joiner time to reach the in-flight entry before releasing.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-joined; !errors.Is(err, boom) {
		t.Fatalf("joined err = %v, want boom", err)
	}
	wg.Wait()

	m := e.Metrics()
	if m.Hits != 0 {
		t.Errorf("hits = %d, want 0 (joined failure is not a hit)", m.Hits)
	}
	if m.JoinedFailures != 1 {
		t.Errorf("joined failures = %d, want 1", m.JoinedFailures)
	}
	if m.Errors != 1 {
		t.Errorf("errors = %d, want 1", m.Errors)
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds[EventCached] != 0 {
		t.Errorf("EventCached emitted %d times for a failed run, want 0", kinds[EventCached])
	}
	if kinds[EventError] != 1 {
		t.Errorf("EventError = %d, want 1", kinds[EventError])
	}
}

// TestJoinedSuccessIsHit is the counterpart: joining an execution that
// succeeds still counts as a hit and emits EventCached (after resolution).
func TestJoinedSuccessIsHit(t *testing.T) {
	e := New(Config{Jobs: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	go e.Do(context.Background(), key("gtc"), func(ctx context.Context) (any, uint64, error) {
		close(started)
		<-release
		return "v", 1, nil
	})
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := e.Do(context.Background(), key("gtc"), func(ctx context.Context) (any, uint64, error) {
			t.Error("joiner must not execute")
			return nil, 0, nil
		})
		if err != nil || v.(string) != "v" {
			t.Errorf("joined = %v, %v", v, err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done
	if m := e.Metrics(); m.Hits != 1 || m.JoinedFailures != 0 {
		t.Fatalf("hits/joinedFailures = %d/%d, want 1/0", m.Hits, m.JoinedFailures)
	}
}

// TestKeyStringDistinguishesSweeps locks in the label fix: keys differing
// only in Scale or Iterations must render differently, while the
// calibrated defaults keep the short form.
func TestKeyStringDistinguishesSweeps(t *testing.T) {
	def := Key{App: "cam", Mode: "fast", Scale: 1.0, Iterations: 10}
	if got := def.String(); got != "cam/fast" {
		t.Errorf("default key = %q, want cam/fast", got)
	}
	cases := []Key{
		{App: "cam", Mode: "fast", Scale: 0.25, Iterations: 10},
		{App: "cam", Mode: "fast", Scale: 1.0, Iterations: 3},
		{App: "cam", Mode: "fast", Scale: 0.25, Iterations: 3},
		{App: "cam", Mode: "fast", Scale: 0.25, Iterations: 3, Profile: "p"},
	}
	seen := map[string]Key{def.String(): def}
	for _, k := range cases {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("keys %+v and %+v collide as %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := cases[0].String(); got != "cam/fast@s0.25" {
		t.Errorf("scale sweep key = %q, want cam/fast@s0.25", got)
	}
	if got := cases[1].String(); got != "cam/fast@i3" {
		t.Errorf("iteration sweep key = %q, want cam/fast@i3", got)
	}
}

// TestEngineRegistryCounters checks the engine publishes its accounting
// into the shared registry next to the per-run wall-time histogram.
func TestEngineRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Jobs: 2, Metrics: reg})
	fn := func(ctx context.Context) (any, uint64, error) { return 1, 5, nil }
	for i := 0; i < 3; i++ {
		if _, err := e.Do(context.Background(), key("s3d"), fn); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if v, _ := s.Counter("runner_misses_total"); v != 1 {
		t.Errorf("misses = %d, want 1", v)
	}
	if v, _ := s.Counter("runner_hits_total"); v != 2 {
		t.Errorf("hits = %d, want 2", v)
	}
	if v, _ := s.Counter("runner_refs_total"); v != 5 {
		t.Errorf("refs = %d, want 5", v)
	}
	found := false
	for _, h := range s.Histograms {
		if h.Name == "runner_run_wall_seconds" && h.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing runner_run_wall_seconds histogram: %+v", s.Histograms)
	}
}
