package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"nvscavenger/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	good := PaperConfig(10)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROB = 0 },
		func(c *Config) { c.MissBuffer = 0 },
		func(c *Config) { c.L1HitCycles = 0 },
		func(c *Config) { c.L2HitCycles = 0 }, // below L1
		func(c *Config) { c.MemLatencyNS = 0 },
		func(c *Config) { c.MemLatencyNS = -1 },
		func(c *Config) { c.MemLatencyNS = math.NaN() },
		func(c *Config) { c.MemLatencyNS = math.Inf(1) },
		func(c *Config) { c.FreqGHz = math.NaN() },
		func(c *Config) { c.FreqGHz = math.Inf(1) },
	}
	for i, mutate := range cases {
		cfg := PaperConfig(10)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// A sweep builds its cores through New, so a bad latency fails the
	// constructor instead of a core mid-sweep.
	if _, err := NewSweep([]string{"a", "b"}, []float64{10, math.NaN()}); err == nil {
		t.Error("sweep with a NaN latency accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(Config{})
}

func TestComputeOnlyIPCIsIssueWidth(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(100000, trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	ipc := core.IPC()
	if ipc < 3.9 || ipc > 4.0 {
		t.Fatalf("compute-only IPC = %v, want ~4 (issue width)", ipc)
	}
}

func TestL1HitIsCheap(t *testing.T) {
	core := MustNew(PaperConfig(10))
	// Repeatedly touch one line: first access misses, rest hit L1.
	for i := 0; i < 1000; i++ {
		core.Event(0, trace.Access{Addr: 64, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.L1Hits != 999 {
		t.Fatalf("L1 hits = %d, want 999", s.L1Hits)
	}
	// 1000 instructions, width 4, all 1-cycle: ~250 cycles + one miss.
	if s.Cycles > 300+s.Cycles*0 {
		t.Fatalf("cycles = %v, want ~250-300", s.Cycles)
	}
}

func TestMemoryLatencyMonotonicity(t *testing.T) {
	run := func(latNS float64) float64 {
		core := MustNew(PaperConfig(latNS))
		// Strided walk (one line per 4 KB page, beyond the stream
		// prefetcher's reach) over a range far larger than L2: every
		// access misses both caches.
		for i := 0; i < 20000; i++ {
			addr := uint64(i%131072) * 4096
			core.Event(2, trace.Access{Addr: addr, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	c10, c12, c20, c100 := run(10), run(12), run(20), run(100)
	if !(c10 <= c12 && c12 <= c20 && c20 <= c100) {
		t.Fatalf("cycles not monotone in latency: %v %v %v %v", c10, c12, c20, c100)
	}
	if c100 <= c10 {
		t.Fatal("10x latency should cost something on a miss-heavy stream")
	}
}

func TestMLPOverlapsIndependentMisses(t *testing.T) {
	// 64 independent misses with no intervening compute should overlap in
	// the miss buffer: total time far less than 64 serialized misses.
	core := MustNew(PaperConfig(100))
	n := 64
	for i := 0; i < n; i++ {
		core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	memLat := 100 * 2.266
	if core.Cycles() > memLat+float64(n) {
		t.Fatalf("cycles = %v: misses did not overlap (serial would be %v)",
			core.Cycles(), float64(n)*memLat)
	}
}

func TestMissBufferLimitsMLP(t *testing.T) {
	run := func(buf int) float64 {
		cfg := PaperConfig(100)
		cfg.MissBuffer = buf
		core := MustNew(cfg)
		for i := 0; i < 256; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	wide, narrow := run(64), run(1)
	if narrow <= wide*2 {
		t.Fatalf("1-entry miss buffer (%v cycles) should be much slower than 64-entry (%v)", narrow, wide)
	}
	if s := func() Stats {
		cfg := PaperConfig(100)
		cfg.MissBuffer = 1
		core := MustNew(cfg)
		for i := 0; i < 256; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Stats()
	}(); s.MissStalls == 0 {
		t.Fatal("narrow miss buffer should record miss stalls")
	}
}

func TestROBWindowLimitsOverlap(t *testing.T) {
	// A miss followed by ROB-1 dependent-free computes overlaps fully; with
	// many more computes than the window, the window fills and stalls.
	run := func(rob int) float64 {
		cfg := PaperConfig(100)
		cfg.ROB = rob
		core := MustNew(cfg)
		for i := 0; i < 50; i++ {
			core.Event(1000, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	small, large := run(8), run(512)
	if small < large {
		t.Fatalf("smaller window should never be faster: rob8=%v rob512=%v", small, large)
	}
}

func TestStoresAreBuffered(t *testing.T) {
	// A stream of store misses must not pay full memory latency: stores
	// retire through the store buffer.
	mk := func(op trace.Op) float64 {
		core := MustNew(PaperConfig(100))
		for i := 0; i < 5000; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: op})
		}
		return core.Cycles()
	}
	loads, stores := mk(trace.Read), mk(trace.Write)
	if stores >= loads {
		t.Fatalf("store stream (%v cycles) should be faster than load stream (%v)", stores, loads)
	}
}

func TestSecondsConversion(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(22660, trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	sec := core.Seconds()
	want := core.Cycles() / 2.266e9
	if math.Abs(sec-want) > 1e-15 {
		t.Fatalf("Seconds = %v, want %v", sec, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(10, trace.Access{Addr: 0, Size: 8, Op: trace.Read})       // mem miss
	core.Event(10, trace.Access{Addr: 8, Size: 8, Op: trace.Read})       // L1 hit
	core.Event(10, trace.Access{Addr: 1 << 30, Size: 8, Op: trace.Read}) // mem miss
	s := core.Stats()
	if s.Instructions != 33 {
		t.Fatalf("instructions = %d, want 33", s.Instructions)
	}
	if s.MemRefs != 3 {
		t.Fatalf("mem refs = %d, want 3", s.MemRefs)
	}
	if s.L1Hits != 1 || s.MemAccesses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", s.L1Hits, s.MemAccesses)
	}
	if s.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
}

// sweepStream is a miss-heavy event stream in uneven batches.
func sweepStream() [][]trace.PerfEvent {
	var batches [][]trace.PerfEvent
	batch := make([]trace.PerfEvent, 0, 1024)
	for i := 0; i < 5000; i++ {
		op := trace.Read
		if i%7 == 0 {
			op = trace.Write
		}
		batch = append(batch, trace.PerfEvent{Gap: uint64(i % 6), Access: trace.Access{Addr: uint64(i*7919%65536) * 64, Size: 8, Op: op}})
		if len(batch) == cap(batch) {
			batches = append(batches, batch)
			batch = make([]trace.PerfEvent, 0, 1024)
		}
	}
	return append(batches, batch)
}

func TestSweepNormalization(t *testing.T) {
	sweep, err := NewSweep(
		[]string{"DRAM", "MRAM", "STTRAM", "PCRAM"},
		[]float64{10, 12, 20, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range sweepStream() {
		if err := sweep.FlushEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	res := sweep.Results()
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Normalized != 1 {
		t.Fatalf("baseline normalized = %v, want 1", res[0].Normalized)
	}
	for i := 1; i < 4; i++ {
		if res[i].Normalized < res[i-1].Normalized {
			t.Fatalf("normalized runtime not monotone: %+v", res)
		}
	}
	if res[3].Normalized <= 1.0 {
		t.Fatal("PCRAM (100ns) must show some slowdown on a miss-heavy stream")
	}
}

// TestSweepMatchesIndependentCores: feeding one captured stream to a sweep
// gives every latency exactly the state an independent core fed the same
// stream reaches — the single-execution sweep loses nothing.
func TestSweepMatchesIndependentCores(t *testing.T) {
	lats := []float64{10, 12, 20, 100}
	sweep, err := NewSweep([]string{"a", "b", "c", "d"}, lats)
	if err != nil {
		t.Fatal(err)
	}
	stream := sweepStream()
	for _, batch := range stream {
		if err := sweep.FlushEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	res := sweep.Results()
	for i, lat := range lats {
		core := MustNew(PaperConfig(lat))
		for _, batch := range stream {
			if err := core.FlushEvents(batch); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := sweep.Cores()[i].Stats(), core.Stats(); got != want {
			t.Errorf("latency %v: sweep core %+v, independent core %+v", lat, got, want)
		}
		if res[i].Cycles != core.Cycles() || res[i].MemLatencyNS != lat {
			t.Errorf("latency %v: result %+v, independent cycles %v", lat, res[i], core.Cycles())
		}
	}
}

func TestSweepLengthMismatch(t *testing.T) {
	if _, err := NewSweep([]string{"a"}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched sweep inputs must error")
	}
}

func TestPrefetcherHidesSequentialStreams(t *testing.T) {
	run := func(streams int) Stats {
		cfg := PaperConfig(100)
		cfg.PrefetchStreams = streams
		core := MustNew(cfg)
		// A pure sequential walk over 16 MB (new line every 8 loads).
		for i := 0; i < 200000; i++ {
			core.Event(2, trace.Access{Addr: uint64(i) * 8, Size: 8, Op: trace.Read})
		}
		return core.Stats()
	}
	with, without := run(16), run(0)
	if with.PrefetchHits == 0 {
		t.Fatal("sequential stream must produce prefetch hits")
	}
	if without.PrefetchHits != 0 {
		t.Fatal("disabled prefetcher must not hit")
	}
	if with.Cycles >= without.Cycles {
		t.Fatalf("prefetcher did not help: %v >= %v", with.Cycles, without.Cycles)
	}
	// Nearly every line after the first should be covered.
	if frac := float64(with.PrefetchHits) / float64(with.PrefetchHits+with.MemAccesses); frac < 0.9 {
		t.Fatalf("prefetch coverage = %.3f on a pure stream, want > 0.9", frac)
	}
}

func TestPrefetcherIgnoresRandomAccess(t *testing.T) {
	cfg := PaperConfig(100)
	core := MustNew(cfg)
	// 4 KB-strided pseudo-random pattern: no sequential lines.
	for i := 0; i < 20000; i++ {
		core.Event(2, trace.Access{Addr: uint64((i*2654435761)%1048576) * 4096, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.PrefetchHits > s.MemAccesses/20 {
		t.Fatalf("prefetcher hit %d of %d on random traffic", s.PrefetchHits, s.MemAccesses)
	}
}

// Property: cycles are monotone non-decreasing in memory latency for any
// access pattern.
func TestQuickLatencyMonotone(t *testing.T) {
	f := func(addrs []uint32, gaps []uint8) bool {
		n := len(addrs)
		if len(gaps) < n {
			n = len(gaps)
		}
		if n == 0 {
			return true
		}
		run := func(lat float64) float64 {
			core := MustNew(PaperConfig(lat))
			for i := 0; i < n; i++ {
				core.Event(uint64(gaps[i]), trace.Access{Addr: uint64(addrs[i]), Size: 8, Op: trace.Read})
			}
			return core.Cycles()
		}
		return run(10) <= run(20)+1e-9 && run(20) <= run(100)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: retire cycle is monotone over the run (in-order retirement).
func TestQuickRetireMonotone(t *testing.T) {
	f := func(addrs []uint32) bool {
		core := MustNew(PaperConfig(100))
		prev := 0.0
		for _, a := range addrs {
			core.Event(uint64(a%7), trace.Access{Addr: uint64(a), Size: 8, Op: trace.Read})
			if core.Cycles() < prev {
				return false
			}
			prev = core.Cycles()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStallCycleAttribution(t *testing.T) {
	// A tight ROB with long loads: the window stalls and the attributed
	// cycles must account for a visible share of the runtime.
	cfg := PaperConfig(100)
	cfg.ROB = 8
	core := MustNew(cfg)
	for i := 0; i < 200; i++ {
		core.Event(100, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.ROBStallCycles <= 0 {
		t.Fatal("ROB stall cycles must be attributed")
	}
	if s.ROBStallCycles > s.Cycles {
		t.Fatalf("stall cycles %v exceed total %v", s.ROBStallCycles, s.Cycles)
	}
	// A narrow miss buffer attributes miss stalls instead.
	cfg = PaperConfig(100)
	cfg.MissBuffer = 1
	core = MustNew(cfg)
	for i := 0; i < 200; i++ {
		core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	s = core.Stats()
	if s.MissStallCycles <= 0 {
		t.Fatal("miss-buffer stall cycles must be attributed")
	}
	// With serialization, miss stalls dominate the runtime.
	if s.MissStallCycles < s.Cycles/2 {
		t.Fatalf("miss stalls %v should dominate %v cycles", s.MissStallCycles, s.Cycles)
	}
}
