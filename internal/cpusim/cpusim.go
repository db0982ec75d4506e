// Package cpusim is a trace-driven out-of-order core timing model, standing
// in for the PTLsim full-system simulations of §V.
//
// The paper uses PTLsim only to vary the main-memory access latency
// (10/12/20/100 ns, Table IV) and observe the application slowdown, with
// read latency assumed equal to write latency (so results are a performance
// lower bound).  The mechanisms that let applications tolerate long memory
// latency are exactly the ones this model captures:
//
//   - overlap with computation: independent instructions issue while loads
//     are outstanding, bounded by the reorder-buffer window;
//   - memory-level parallelism: multiple misses overlap, bounded by the
//     miss-buffer depth (Table III: 64 entries);
//   - locality filtering: a two-level cache hierarchy (Table II) turns most
//     references into 1- or 5-cycle hits (Table III) so that only last-level
//     misses see the technology-dependent latency.
//
// The core retires instructions in order through a circular reorder buffer:
// an instruction can issue only when an issue slot and a reorder-buffer
// entry are free, and retires no earlier than its predecessor.
package cpusim

import (
	"fmt"
	"math"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/trace"
)

// Config parametrizes the core, following Table III of the paper.
type Config struct {
	// FreqGHz is the core clock (Table III: 2.266 GHz).
	FreqGHz float64
	// IssueWidth is instructions issued per cycle.
	IssueWidth int
	// ROB is the reorder-buffer (instruction window) depth.
	ROB int
	// MissBuffer bounds simultaneously outstanding main-memory misses
	// (Table III: 64).
	MissBuffer int
	// L1HitCycles and L2HitCycles are the hit latencies (Table III: 1, 5).
	L1HitCycles int
	L2HitCycles int
	// MemLatencyNS is the main-memory access latency under study; reads and
	// writes share it, as §V assumes.
	MemLatencyNS float64
	// PrefetchStreams is the number of sequential streams the hardware
	// prefetcher tracks.  A miss that continues a tracked stream has been
	// fetched ahead of use and is charged the L2 hit latency instead of the
	// memory latency — the prefetching §V names among the mechanisms that
	// hide memory access time.  Zero disables the prefetcher (negative
	// also disables; use the ablation benchmarks to compare).
	PrefetchStreams int
	// Cache configures the two-level hierarchy (defaults to Table II).
	Cache cachesim.Config
	// MemSink optionally receives the main-memory transactions generated
	// by the core's cache misses in batches, each stamped with the core's
	// cycle at issue.  Feeding these to a dramsim.MemorySystem with
	// CPUFreqGHz set couples the timing and power simulators, §IV's
	// integrated mode.
	MemSink trace.TxSink
}

// PaperConfig returns the Table II/III configuration with the given memory
// latency.
func PaperConfig(memLatencyNS float64) Config {
	return Config{
		FreqGHz:         2.266,
		IssueWidth:      4,
		ROB:             128,
		MissBuffer:      64,
		L1HitCycles:     1,
		L2HitCycles:     5,
		MemLatencyNS:    memLatencyNS,
		PrefetchStreams: 16,
		Cache:           cachesim.PaperConfig(),
	}
}

func (c Config) validate() error {
	if !(c.FreqGHz > 0) || math.IsInf(c.FreqGHz, 0) {
		return fmt.Errorf("cpusim: frequency %v GHz is not a positive finite number", c.FreqGHz)
	}
	if c.IssueWidth <= 0 || c.ROB <= 0 || c.MissBuffer <= 0 {
		return fmt.Errorf("cpusim: non-positive core resources %+v", c)
	}
	if c.L1HitCycles <= 0 || c.L2HitCycles < c.L1HitCycles {
		return fmt.Errorf("cpusim: implausible hit latencies %+v", c)
	}
	if !(c.MemLatencyNS > 0) || math.IsInf(c.MemLatencyNS, 0) {
		return fmt.Errorf("cpusim: memory latency %v is not a positive finite number", c.MemLatencyNS)
	}
	return nil
}

// Core is the timing model.  It implements the batched trace.PerfSink
// contract the instrumentation tracer flushes into (FlushEvents), and the
// per-event Event(gap, access) entry point for direct drivers; events must
// arrive in program order either way.
type Core struct {
	cfg Config
	hw  *cachesim.Hierarchy

	memLatCycles float64

	// clockQ is the next issue slot in quarter^-1 cycles: we track issue
	// bandwidth as fractional cycles (1/IssueWidth per instruction).
	clock float64
	// retire[i%ROB] is the retire cycle of the i-th most recent instruction.
	retire []float64
	pos    int
	filled int
	// lastRetire enforces in-order retirement.
	lastRetire float64

	// outstanding main-memory misses: completion cycles, FIFO (completions
	// are monotone because issue is monotone and latency constant).
	misses []float64
	mHead  int
	mCount int

	// stream prefetcher: last line address per tracked stream.
	streams   []uint64
	streamRot int

	// statistics
	instrs       uint64
	memRefs      uint64
	l1Hits       uint64
	l2Hits       uint64
	memAccess    uint64
	prefetchHits uint64 // memory misses hidden by the stream prefetcher
	robStalls    uint64 // issues delayed by a full window
	missStalls   uint64 // issues delayed by a full miss buffer
	// stall-cycle attribution: cycles the issue clock jumped while waiting
	// on the window or the miss buffer.
	robStallCycles  float64
	missStallCycles float64
}

// New builds a Core.
func New(cfg Config) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Cache.L1.SizeBytes == 0 {
		cfg.Cache = cachesim.PaperConfig()
	}
	hw, err := cachesim.New(cfg.Cache, cfg.MemSink)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:          cfg,
		hw:           hw,
		memLatCycles: cfg.MemLatencyNS * cfg.FreqGHz,
		retire:       make([]float64, cfg.ROB),
		misses:       make([]float64, cfg.MissBuffer),
	}
	if cfg.PrefetchStreams > 0 {
		c.streams = make([]uint64, cfg.PrefetchStreams)
	}
	if cfg.MemSink != nil {
		// Stamp outgoing transactions with the core clock at issue time;
		// delivery stays batched, so the downstream power simulator sees
		// real timing without a per-transaction interface call.
		hw.SetCycleSource(func() uint64 { return uint64(c.clock) })
	}
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// issueOne issues a single instruction with the given execution latency and
// returns its retire cycle.
func (c *Core) issueOne(lat float64, isMemMiss bool) float64 {
	// Claim an issue slot.
	c.clock += 1.0 / float64(c.cfg.IssueWidth)
	issue := c.clock

	// The reorder buffer must have a free entry: the instruction ROB
	// positions ago must have retired.
	if c.filled == c.cfg.ROB {
		if oldest := c.retire[c.pos]; oldest > issue {
			c.robStallCycles += oldest - issue
			issue = oldest
			c.clock = issue
			c.robStalls++
		}
	} else {
		c.filled++
	}

	// A main-memory miss needs a miss-buffer entry.
	if isMemMiss {
		if c.mCount == c.cfg.MissBuffer {
			if head := c.misses[c.mHead]; head > issue {
				c.missStallCycles += head - issue
				issue = head
				c.clock = issue
				c.missStalls++
			}
			c.mHead = (c.mHead + 1) % c.cfg.MissBuffer
			c.mCount--
		}
		c.misses[(c.mHead+c.mCount)%c.cfg.MissBuffer] = issue + lat
		c.mCount++
	}

	done := issue + lat
	if done < c.lastRetire {
		done = c.lastRetire // in-order retirement
	}
	c.lastRetire = done
	c.retire[c.pos] = done
	c.pos = (c.pos + 1) % c.cfg.ROB
	c.instrs++
	return done
}

// Event consumes one memory reference preceded by gap compute instructions
// (the memtrace PerfSink contract).
func (c *Core) Event(gap uint64, a trace.Access) {
	for i := uint64(0); i < gap; i++ {
		c.issueOne(1, false)
	}
	c.memRefs++
	lvl := c.hw.Access(a)
	var lat float64
	isMiss := false
	switch lvl {
	case cachesim.ServicedL1:
		lat = float64(c.cfg.L1HitCycles)
		c.l1Hits++
	case cachesim.ServicedL2:
		lat = float64(c.cfg.L2HitCycles)
		c.l2Hits++
	default:
		if c.prefetched(a.Addr) {
			// The stream prefetcher fetched this line ahead of use; the
			// demand access finds it in (or on its way to) the L2.
			lat = float64(c.cfg.L2HitCycles)
			c.prefetchHits++
		} else {
			lat = c.memLatCycles
			isMiss = true
			c.memAccess++
		}
	}
	if a.IsWrite() {
		// Stores retire through the store buffer: the cache state is
		// updated, but the instruction occupies its window slot for only a
		// hit latency — writes are not on the critical path (§V's uniform
		// read/write latency is applied to loads; buffered stores make the
		// model's tolerance of write latency explicit).
		if lat > float64(c.cfg.L2HitCycles) {
			lat = float64(c.cfg.L2HitCycles)
			isMiss = false
		}
	}
	c.issueOne(lat, isMiss)
}

// FlushEvents implements trace.PerfSink: one batch of the instruction-
// interleaved reference stream, delivered from the tracer's staging buffer
// so references and gaps travel in the same flush.
func (c *Core) FlushEvents(batch []trace.PerfEvent) error {
	for _, ev := range batch {
		c.Event(ev.Gap, ev.Access)
	}
	return nil
}

// Finish flushes the hierarchy's staged transaction batch into MemSink.
// Call once at end of replay when a MemSink is attached; without one it is
// a no-op.
func (c *Core) Finish() error {
	if err := c.hw.FlushTx(); err != nil {
		return err
	}
	return c.hw.Err()
}

// prefetched reports whether a missing line continues one of the tracked
// sequential streams, and allocates a new stream (round-robin) otherwise.
func (c *Core) prefetched(addr uint64) bool {
	if len(c.streams) == 0 {
		return false
	}
	line := addr >> 6
	for i, s := range c.streams {
		if line == s+1 || line == s {
			c.streams[i] = line
			return line != s // re-touching the same line is not a stream hit
		}
	}
	c.streams[c.streamRot] = line
	c.streamRot = (c.streamRot + 1) % len(c.streams)
	return false
}

// Cycles returns the cycle at which the last instruction retires.
func (c *Core) Cycles() float64 { return c.lastRetire }

// Seconds converts Cycles to wall-clock seconds at the configured frequency.
func (c *Core) Seconds() float64 { return c.Cycles() / (c.cfg.FreqGHz * 1e9) }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.Cycles() == 0 {
		return 0
	}
	return float64(c.instrs) / c.Cycles()
}

// Stats summarizes a finished run.
type Stats struct {
	Instructions uint64
	MemRefs      uint64
	L1Hits       uint64
	L2Hits       uint64
	MemAccesses  uint64
	PrefetchHits uint64
	ROBStalls    uint64
	MissStalls   uint64
	// ROBStallCycles and MissStallCycles attribute issue-clock jumps to
	// their cause; their sum over Cycles is the structural-stall share.
	ROBStallCycles  float64
	MissStallCycles float64
	Cycles          float64
	IPC             float64
}

// Stats returns the run summary.
func (c *Core) Stats() Stats {
	return Stats{
		Instructions:    c.instrs,
		MemRefs:         c.memRefs,
		L1Hits:          c.l1Hits,
		L2Hits:          c.l2Hits,
		MemAccesses:     c.memAccess,
		PrefetchHits:    c.prefetchHits,
		ROBStalls:       c.robStalls,
		MissStalls:      c.missStalls,
		ROBStallCycles:  c.robStallCycles,
		MissStallCycles: c.missStallCycles,
		Cycles:          c.Cycles(),
		IPC:             c.IPC(),
	}
}

// SweepResult is one point of a latency sweep.
type SweepResult struct {
	Device       string
	MemLatencyNS float64
	Cycles       float64
	// Normalized is Cycles relative to the first (baseline) sweep point.
	Normalized float64
}

// Sweep evaluates one event stream against several memory latencies at
// once (Figure 12's presentation): it owns one Core per latency and, as a
// trace.PerfSink, hands every batch to each of them, so a single execution
// of the app drives the whole sweep.
type Sweep struct {
	devices []string
	cores   []*Core
}

// NewSweep builds one paper-configured Core per latency; devices names the
// sweep points and must match latenciesNS in length.
func NewSweep(devices []string, latenciesNS []float64) (*Sweep, error) {
	if len(devices) != len(latenciesNS) {
		return nil, fmt.Errorf("cpusim: %d devices but %d latencies", len(devices), len(latenciesNS))
	}
	s := &Sweep{devices: devices, cores: make([]*Core, len(latenciesNS))}
	for i, lat := range latenciesNS {
		c, err := New(PaperConfig(lat))
		if err != nil {
			return nil, err
		}
		s.cores[i] = c
	}
	return s, nil
}

// FlushEvents implements trace.PerfSink: every core consumes the batch.
// Cores read the batch and do not retain it, so one buffer serves them all.
func (s *Sweep) FlushEvents(batch []trace.PerfEvent) error {
	for _, c := range s.cores {
		if err := c.FlushEvents(batch); err != nil {
			return err
		}
	}
	return nil
}

// Cores returns the per-latency cores in sweep order.
func (s *Sweep) Cores() []*Core { return s.cores }

// Results returns the runtimes normalized to the first sweep point.
func (s *Sweep) Results() []SweepResult {
	out := make([]SweepResult, len(s.cores))
	var base float64
	for i, c := range s.cores {
		cy := c.Cycles()
		if i == 0 {
			base = cy
		}
		norm := 0.0
		if base > 0 {
			norm = cy / base
		}
		out[i] = SweepResult{Device: s.devices[i], MemLatencyNS: c.cfg.MemLatencyNS, Cycles: cy, Normalized: norm}
	}
	return out
}
