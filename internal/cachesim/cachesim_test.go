package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// tinyConfig is a deliberately small hierarchy so tests can force evictions:
// L1 = 2 sets x 2 ways x 64B = 256B; L2 = 4 sets x 2 ways x 64B = 512B.
func tinyConfig() Config {
	return Config{
		L1: LevelConfig{Name: "L1D", SizeBytes: 256, Ways: 2, LineSize: 64, WriteAllocate: false},
		L2: LevelConfig{Name: "L2", SizeBytes: 512, Ways: 2, LineSize: 64, WriteAllocate: true},
	}
}

type captureSink struct {
	txs []trace.Transaction
}

func (c *captureSink) FlushTx(batch []trace.Transaction) error {
	c.txs = append(c.txs, batch...)
	return nil
}

func TestPaperConfigGeometry(t *testing.T) {
	cfg := PaperConfig()
	if cfg.L1.sets() != 128 {
		t.Errorf("L1 sets = %d, want 128 (32KB/4way/64B)", cfg.L1.sets())
	}
	if cfg.L2.sets() != 1024 {
		t.Errorf("L2 sets = %d, want 1024 (1MB/16way/64B)", cfg.L2.sets())
	}
	if cfg.L1.WriteAllocate {
		t.Error("paper L1 is no-write-allocate")
	}
	if !cfg.L2.WriteAllocate {
		t.Error("paper L2 is write-allocate")
	}
	if _, err := New(cfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []LevelConfig{
		{Name: "zero", SizeBytes: 0, Ways: 1, LineSize: 64},
		{Name: "npo2line", SizeBytes: 1024, Ways: 2, LineSize: 48},
		{Name: "indivisible", SizeBytes: 1000, Ways: 2, LineSize: 64},
		{Name: "npo2sets", SizeBytes: 3 * 2 * 64, Ways: 2, LineSize: 64},
	}
	for _, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: expected validation error", cfg.Name)
		}
	}
	if err := (LevelConfig{Name: "ok", SizeBytes: 1024, Ways: 2, LineSize: 64}).validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMixedLineSizesRejected(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2.LineSize = 128
	cfg.L2.SizeBytes = 1024
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("mixed line sizes must be rejected")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{}, nil)
}

func TestColdMissThenHit(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	a := trace.Access{Addr: 0x1000, Size: 8, Op: trace.Read}
	h.Access(a)
	h.Access(a)
	l1 := h.L1Stats()
	if l1.Misses != 1 || l1.Hits != 1 {
		t.Fatalf("L1 = %+v, want 1 miss then 1 hit", l1)
	}
	if h.MemReads != 1 || h.MemWrites != 0 {
		t.Fatalf("memory traffic = %d/%d, want one fill read", h.MemReads, h.MemWrites)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	h.Access(trace.Access{Addr: 0x1000, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 0x1038, Size: 8, Op: trace.Read})
	if got := h.L1Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("L1 = %+v, want same-line offset to hit", got)
	}
}

func TestLineSplitAccess(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	// 8 bytes starting 4 before a line boundary touch two lines.
	h.Access(trace.Access{Addr: 0x103c, Size: 8, Op: trace.Read})
	if got := h.L1Stats(); got.Accesses() != 2 {
		t.Fatalf("L1 accesses = %d, want 2 (split reference)", got.Accesses())
	}
	if h.MemReads != 2 {
		t.Fatalf("memory reads = %d, want 2", h.MemReads)
	}
}

func TestNoWriteAllocateL1(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	w := trace.Access{Addr: 0x2000, Size: 8, Op: trace.Write}
	h.Access(w)
	// Write miss must not fill L1: a second write misses again.
	h.Access(w)
	l1 := h.L1Stats()
	if l1.Misses != 2 || l1.Hits != 0 {
		t.Fatalf("L1 = %+v, want two write misses (no-write-allocate)", l1)
	}
	// ...but L2 is write-allocate, so it filled on the first write and hits
	// on the second.
	l2 := h.L2Stats()
	if l2.Misses != 1 || l2.Hits != 1 {
		t.Fatalf("L2 = %+v, want 1 miss + 1 hit", l2)
	}
	// The L2 write-allocate fill read memory once.
	if h.MemReads != 1 {
		t.Fatalf("memory reads = %d, want 1 (allocate fill)", h.MemReads)
	}
	if h.MemWrites != 0 {
		t.Fatalf("memory writes = %d, want 0 before eviction", h.MemWrites)
	}
}

func TestWriteHitDirtiesL1(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	addr := uint64(0x3000)
	h.Access(trace.Access{Addr: addr, Size: 8, Op: trace.Read})  // fill L1
	h.Access(trace.Access{Addr: addr, Size: 8, Op: trace.Write}) // dirty it
	if got := h.L1Stats(); got.Hits != 1 {
		t.Fatalf("write after read should hit L1: %+v", got)
	}
	// Evict the line by touching two more lines mapping to the same set
	// (L1 has 2 sets / 2 ways; same set = same (addr>>6)&1).
	h.Access(trace.Access{Addr: addr + 128, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: addr + 256, Size: 8, Op: trace.Read})
	if got := h.L1Stats(); got.Writebacks != 1 {
		t.Fatalf("L1 writebacks = %d, want 1 dirty eviction", got.Writebacks)
	}
}

func TestL2DirtyEvictionReachesMemory(t *testing.T) {
	sink := &captureSink{}
	h := MustNew(tinyConfig(), sink)
	// Dirty one L2 line via a write (no-write-allocate L1 -> L2 write).
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Write})
	// Evict it from L2: set count 4, ways 2 -> lines 0, 1024, 2048 share set 0.
	h.Access(trace.Access{Addr: 1024, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 2048, Size: 8, Op: trace.Read})
	if err := h.FlushTx(); err != nil { // push the staged batch to the sink
		t.Fatal(err)
	}
	if h.MemWrites != 1 {
		t.Fatalf("memory writes = %d, want 1 (dirty L2 eviction)", h.MemWrites)
	}
	var sawWrite bool
	for _, tx := range sink.txs {
		if tx.Write && tx.Addr == 0 {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatal("sink did not observe the writeback of line 0")
	}
}

func TestLRUReplacement(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	// L1 set 0 holds lines with (addr>>6) even... sets=2 so set = (addr>>6)&1.
	// Lines 0, 128, 256 all map to set 0 (2-way).
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})   // miss, fill
	h.Access(trace.Access{Addr: 128, Size: 8, Op: trace.Read}) // miss, fill
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})   // hit, 0 is MRU
	h.Access(trace.Access{Addr: 256, Size: 8, Op: trace.Read}) // evicts 128 (LRU)
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})   // must still hit
	l1 := h.L1Stats()
	if l1.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (line 0 must survive, LRU evicts 128)", l1.Hits)
	}
	h.Access(trace.Access{Addr: 128, Size: 8, Op: trace.Read})
	if got := h.L1Stats(); got.Hits != 2 {
		t.Fatal("line 128 should have been the LRU victim and missed now")
	}
}

func TestDrainWritesBackAllDirtyLines(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	// Dirty two distinct lines in L1 via read-then-write.
	for _, addr := range []uint64{0, 64} {
		h.Access(trace.Access{Addr: addr, Size: 8, Op: trace.Read})
		h.Access(trace.Access{Addr: addr, Size: 8, Op: trace.Write})
	}
	if h.MemWrites != 0 {
		t.Fatal("no writebacks expected before drain")
	}
	h.Drain()
	if h.MemWrites != 2 {
		t.Fatalf("drain emitted %d writes, want 2", h.MemWrites)
	}
	// Draining twice must not duplicate.
	h.Drain()
	if h.MemWrites != 2 {
		t.Fatal("second drain must be a no-op")
	}
}

func TestFlushIsTraceSink(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	batch := []trace.Access{
		{Addr: 0x100, Size: 8, Op: trace.Read},
		{Addr: 0x100, Size: 8, Op: trace.Write},
	}
	if err := h.Flush(batch); err != nil {
		t.Fatal(err)
	}
	if h.L1Stats().Accesses() != 2 {
		t.Fatal("Flush should process every access in the batch")
	}
}

func TestTransactionCycleMonotonic(t *testing.T) {
	sink := &captureSink{}
	h := MustNew(tinyConfig(), sink)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		h.Access(trace.Access{Addr: uint64(rng.Intn(1 << 14)), Size: 8, Op: trace.Op(rng.Intn(2))})
	}
	if err := h.FlushTx(); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, tx := range sink.txs {
		if tx.Cycle < prev {
			t.Fatalf("tx %d cycle %d < previous %d", i, tx.Cycle, prev)
		}
		prev = tx.Cycle
	}
	if len(sink.txs) == 0 {
		t.Fatal("expected some memory traffic")
	}
}

func TestCacheFilteringReducesTraffic(t *testing.T) {
	// A hot loop over a small working set must produce far fewer memory
	// transactions than references: the whole point of embedding the cache
	// simulator (§III).
	h := MustNew(PaperConfig(), nil)
	refs := 0
	for iter := 0; iter < 100; iter++ {
		for addr := uint64(0); addr < 16<<10; addr += 8 {
			h.Access(trace.Access{Addr: addr, Size: 8, Op: trace.Read})
			refs++
		}
	}
	mem := h.MemReads + h.MemWrites
	if mem*100 > uint64(refs) {
		t.Fatalf("memory traffic %d for %d refs: cache not filtering", mem, refs)
	}
}

// Property: hits+misses at L1 equals the number of line-accesses presented.
func TestQuickAccessAccounting(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := MustNew(tinyConfig(), nil)
		count := int(n%2000) + 1
		lines := 0
		for i := 0; i < count; i++ {
			a := trace.Access{
				Addr: uint64(rng.Intn(1 << 16)),
				Size: uint8(rng.Intn(64) + 1),
				Op:   trace.Op(rng.Intn(2)),
			}
			first := a.Addr &^ 63
			last := (a.End() - 1) &^ 63
			lines += int((last-first)/64) + 1
			h.Access(a)
		}
		return h.L1Stats().Accesses() == uint64(lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every byte ever written is eventually written back to memory
// exactly once per dirtying episode; more weakly (and robustly): after
// Drain, the number of memory writes is bounded by the number of distinct
// dirtied lines per episode and is nonzero whenever a write occurred.
func TestQuickWritebackConservation(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := MustNew(tinyConfig(), nil)
		count := int(n%500) + 1
		wrote := false
		for i := 0; i < count; i++ {
			op := trace.Op(rng.Intn(2))
			if op == trace.Write {
				wrote = true
			}
			h.Access(trace.Access{Addr: uint64(rng.Intn(1 << 12)), Size: 8, Op: op})
		}
		h.Drain()
		if wrote && h.MemWrites == 0 {
			return false
		}
		if !wrote && h.MemWrites != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory read transactions are always line-aligned.
func TestQuickTransactionAlignment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		aligned := true
		sink := trace.TxSinkFunc(func(batch []trace.Transaction) error {
			for _, tx := range batch {
				if tx.Addr%64 != 0 {
					aligned = false
				}
			}
			return nil
		})
		h := MustNew(tinyConfig(), sink)
		for i := 0; i < 300; i++ {
			h.Access(trace.Access{
				Addr: uint64(rng.Intn(1 << 14)),
				Size: uint8(rng.Intn(32) + 1),
				Op:   trace.Op(rng.Intn(2)),
			})
		}
		h.Drain()
		return aligned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRatioAndAccessors(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	if h.LineSize() != 64 {
		t.Fatalf("line size = %d", h.LineSize())
	}
	if h.Err() != nil {
		t.Fatal("fresh hierarchy should have no error")
	}
	if got := h.L1Stats().MissRatio(); got != 0 {
		t.Fatalf("idle miss ratio = %v", got)
	}
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	if got := h.L1Stats().MissRatio(); got != 0.5 {
		t.Fatalf("miss ratio = %v, want 0.5", got)
	}
}

func TestServiceLevelString(t *testing.T) {
	if ServicedL1.String() != "L1" || ServicedL2.String() != "L2" || ServicedMem.String() != "memory" {
		t.Fatal("service level strings wrong")
	}
}

func TestInvalidate(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	h.Access(trace.Access{Addr: 0x100, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 0x100, Size: 8, Op: trace.Write}) // dirty in L1
	present, dirty := h.l1.invalidate(0x100)
	if !present || !dirty {
		t.Fatalf("invalidate = %v/%v, want present+dirty", present, dirty)
	}
	if present, _ := h.l1.invalidate(0x100); present {
		t.Fatal("second invalidate must miss")
	}
	// The next access misses again.
	if lvl := h.Access(trace.Access{Addr: 0x100, Size: 8, Op: trace.Read}); lvl == ServicedL1 {
		t.Fatal("invalidated line must not hit L1")
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || RandomRepl.String() != "random" {
		t.Fatal("replacement strings wrong")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1.Replacement = FIFO
	h := MustNew(cfg, nil)
	// Fill set 0 (2 ways): lines 0 then 128; touch 0 again (recency), then
	// bring in 256.  FIFO evicts the oldest fill — line 0 — despite its
	// recent use; LRU would have evicted 128.
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 128, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	h.Access(trace.Access{Addr: 256, Size: 8, Op: trace.Read})
	hits := h.L1Stats().Hits
	h.Access(trace.Access{Addr: 128, Size: 8, Op: trace.Read})
	if h.L1Stats().Hits != hits+1 {
		t.Fatal("FIFO should have kept line 128 (second fill)")
	}
	h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	if h.L1Stats().Hits != hits+1 {
		t.Fatal("FIFO should have evicted line 0 (oldest fill)")
	}
}

func TestRandomReplacementDeterministicAndServiceable(t *testing.T) {
	run := func() LevelStats {
		cfg := tinyConfig()
		cfg.L1.Replacement = RandomRepl
		h := MustNew(cfg, nil)
		for i := 0; i < 5000; i++ {
			h.Access(trace.Access{Addr: uint64(i%24) * 64, Size: 8, Op: trace.Read})
		}
		return h.L1Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("random replacement must be deterministic across runs")
	}
	if a.Hits == 0 || a.Misses == 0 {
		t.Fatalf("degenerate stats: %+v", a)
	}
}

func TestLRUBeatsFIFOOnLoopingWorkload(t *testing.T) {
	// A working set slightly over capacity with heavy reuse of a hot line:
	// LRU keeps the hot line, FIFO cycles it out.
	run := func(r Replacement) float64 {
		cfg := tinyConfig()
		cfg.L1.Replacement = r
		h := MustNew(cfg, nil)
		for i := 0; i < 30000; i++ {
			h.Access(trace.Access{Addr: 0, Size: 8, Op: trace.Read}) // hot line
			h.Access(trace.Access{Addr: uint64(i%3+1) * 128, Size: 8, Op: trace.Read})
		}
		return h.L1Stats().MissRatio()
	}
	lru, fifo := run(LRU), run(FIFO)
	if lru > fifo {
		t.Fatalf("LRU miss ratio %v should not exceed FIFO %v here", lru, fifo)
	}
}

// TestConfigValidateLineSizeMismatch locks in the cross-level invariant:
// the hierarchy assumes one shared line size, so a mismatched config must
// be rejected instead of silently producing wrong writeback addresses.
func TestConfigValidateLineSizeMismatch(t *testing.T) {
	cfg := PaperConfig()
	cfg.L2.LineSize = 128
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted mixed line sizes")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("New accepted mixed line sizes")
	}
	// Per-level geometry errors still surface through Validate.
	bad := PaperConfig()
	bad.L1.LineSize = 48 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted non-power-of-two line size")
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config must validate: %v", err)
	}
}

// TestZeroSizeAccessTerminates is the regression test for the unsigned
// underflow in Access: a zero-size access made a.End()-1 wrap around, so the
// line walk from first to last never terminated.  A zero-size access must
// touch exactly the line containing Addr and return.
func TestZeroSizeAccessTerminates(t *testing.T) {
	h := MustNew(tinyConfig(), nil)
	h.Access(trace.Access{Addr: 0x1000, Size: 0, Op: trace.Read})
	if got := h.L1Stats().Accesses(); got != 1 {
		t.Fatalf("zero-size access touched %d lines, want 1", got)
	}
	// Worst case before the fix: Addr 0 made first == 0 and last == ^uint64(0).
	h.Access(trace.Access{Addr: 0, Size: 0, Op: trace.Write})
	if got := h.L1Stats().Accesses(); got != 2 {
		t.Fatalf("zero-size access at 0 touched %d lines total, want 2", got)
	}
}

// TestTransactionsDeliveredInBatches locks in the staging behaviour: the
// hierarchy buffers outgoing transactions and hands them to the TxSink as
// batches, not one call per transaction.
func TestTransactionsDeliveredInBatches(t *testing.T) {
	var calls, txs int
	sink := trace.TxSinkFunc(func(batch []trace.Transaction) error {
		calls++
		txs += len(batch)
		return nil
	})
	h := MustNew(tinyConfig(), sink)
	for i := 0; i < 200; i++ {
		h.Access(trace.Access{Addr: uint64(i) * 64, Size: 8, Op: trace.Write})
	}
	if calls != 0 {
		t.Fatalf("sink called %d times before flush; transactions must be staged", calls)
	}
	h.Drain()
	if calls == 0 || txs == 0 {
		t.Fatal("drain must flush the staged batch to the sink")
	}
	if txs != int(h.MemReads+h.MemWrites) {
		t.Fatalf("sink saw %d transactions, hierarchy counted %d", txs, h.MemReads+h.MemWrites)
	}
}

// TestExportMetrics checks the hierarchy publishes its counters and hit
// ratios under per-level labels.
func TestExportMetrics(t *testing.T) {
	h := MustNew(PaperConfig(), nil)
	for i := 0; i < 256; i++ {
		h.Access(trace.Access{Addr: uint64(i) * 64, Size: 8, Op: trace.Read})
		h.Access(trace.Access{Addr: uint64(i) * 64, Size: 8, Op: trace.Read})
	}
	reg := obs.NewRegistry()
	h.ExportMetrics(reg, obs.L("app", "test"))
	s := reg.Snapshot()
	l1 := []obs.Label{{Key: "app", Value: "test"}, {Key: "level", Value: "L1D"}}
	hits, ok := s.Gauge("cachesim_hits", l1...)
	if !ok || hits != float64(h.L1Stats().Hits) {
		t.Fatalf("cachesim_hits{L1D} = %v (found %v), want %d", hits, ok, h.L1Stats().Hits)
	}
	ratio, ok := s.Gauge("cachesim_hit_ratio", l1...)
	if !ok || ratio != h.L1Stats().HitRatio() {
		t.Fatalf("cachesim_hit_ratio{L1D} = %v, want %v", ratio, h.L1Stats().HitRatio())
	}
	if _, ok := s.Gauge("cachesim_hit_ratio", obs.L("app", "test"), obs.L("level", "L2")); !ok {
		t.Fatal("missing L2 hit ratio")
	}
	if v, ok := s.Gauge("cachesim_mem_reads", obs.L("app", "test")); !ok || v != float64(h.MemReads) {
		t.Fatalf("cachesim_mem_reads = %v, want %d", v, h.MemReads)
	}
}
